//! Integration tests for the sharded cluster front-end: shard-count
//! invariance of results, token-bucket shedding with a manual clock (no
//! sleeps), cross-shard migration that never loses or duplicates a job,
//! idle shards that run a wedged peer's queue, and the ownership rule
//! behind both: a moved job is still served, journaled, cached, and
//! counted by the shard that admitted it.

use qdm::prelude::*;
use qdm::qubo::model::QuboModel;
use qdm::qubo::penalty;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn mqo(seed: u64) -> Arc<MqoProblem> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(MqoProblem::new(MqoInstance::generate(3, 2, 0.3, &mut rng)))
}

fn joinorder(seed: u64) -> Arc<JoinOrderProblem> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(JoinOrderProblem::left_deep(QueryGraph::generate_random(4, 0.3, &mut rng)))
}

fn repair() -> PipelineOptions {
    PipelineOptions { repair: true, ..Default::default() }
}

/// Backends pinned so the shard-local adaptive portfolio (whose telemetry
/// is not shared between shards) cannot influence routing: under pinned
/// backends and fixed seeds, results depend only on (problem, options,
/// seed).
fn pinned_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for (i, backend) in
        ["simulated-annealing", "tabu", "simulated-quantum-annealing"].iter().enumerate()
    {
        specs.push(
            JobSpec::new(mqo(10 + i as u64), 70 + i as u64)
                .with_options(repair())
                .on_backend(backend),
        );
        specs.push(
            JobSpec::new(joinorder(20 + i as u64), 80 + i as u64)
                .with_options(repair())
                .on_backend(backend),
        );
    }
    specs
}

fn cluster_of(shards: usize) -> ClusterService {
    ClusterService::new(ClusterConfig {
        shards,
        service: ServiceConfig { workers: 1, cache_capacity: 64, ..Default::default() },
        ..Default::default()
    })
}

#[test]
fn four_shard_results_are_bit_identical_to_single_shard() {
    let run = |shards: usize| -> Vec<JobOutcome> {
        let cluster = cluster_of(shards);
        let session =
            cluster.session("t", SessionConfig { queue_capacity: 16, ..Default::default() });
        let handles: Vec<JobHandle> =
            pinned_specs().into_iter().map(|s| session.submit(s).expect("admitted")).collect();
        handles.iter().map(JobHandle::wait).collect()
    };
    let solo = run(1);
    let sharded = run(4);
    for (a, b) in solo.iter().zip(&sharded) {
        let a = a.as_ref().expect("solvable");
        let b = b.as_ref().expect("solvable");
        assert_eq!(a.report.bits, b.report.bits, "placement must not change the solution");
        assert_eq!(a.report.energy, b.report.energy);
        assert_eq!(a.backend, b.backend);
        assert_eq!(a.report.decoded.summary, b.report.decoded.summary);
    }
}

#[test]
fn shed_then_retry_resubmits_the_recovered_spec() {
    // Buckets are denominated in predicted seconds, so capacity and refill
    // are expressed in units of one job's cold cost-model quote — read off
    // the same public estimator the cluster charges with. The gate parks
    // the first admitted job in decode, so no solve observation
    // recalibrates the quote while the test is still submitting.
    let reg = SolverRegistry::standard();
    let sa = reg.find("simulated-annealing").expect("SA registered");
    let unit = analytic_seconds(&reg.get(sa).spec, CostShape::from_n_vars(4));
    let capacity = 2.5 * unit;
    let refill = 4.0 * unit;
    let gate = Arc::new(Gate::default());
    let clock = Arc::new(ManualClock::new(0));
    let cluster = ClusterService::new(ClusterConfig {
        shards: 2,
        service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
        admission: AdmissionConfig::default()
            .with_tenant("burst", TokenBucketConfig { capacity, refill_per_second: refill }),
        clock: Some(clock.clone()),
        ..Default::default()
    });
    let session = cluster.session("burst", SessionConfig::default());
    let spec = |seed| {
        let problem =
            Arc::new(GatedPick { costs: vec![2.5, 0.5, 1.5, 3.5], gate: Arc::clone(&gate) });
        JobSpec::new(problem, seed).on_backend("simulated-annealing")
    };

    let a = session.submit(spec(1)).expect("burst covers job 1");
    let b = session.submit(spec(2)).expect("burst covers job 2");
    let err = session.submit(spec(3)).unwrap_err();
    let hint = err.retry_after_hint().expect("overloaded carries a retry hint");
    // The hint covers *this job's* deficit, replicated here with the
    // bucket's own arithmetic: 0.5 units short at 4 units/s ≈ 125ms.
    let remaining = capacity - unit - unit;
    assert_eq!(hint, Duration::from_secs_f64((unit - remaining) / refill));

    // No sleeping: advance the injected clock past the hint (one extra
    // microsecond absorbs the hint's sub-microsecond truncation) and
    // resubmit the spec recovered from the error.
    clock.advance(hint.as_micros() as u64 + 1);
    let c = session.submit(err.into_spec()).expect("bucket refilled");

    gate.open();
    for handle in [&a, &b, &c] {
        assert!(handle.wait().is_ok());
    }
    session.drain();
    let report = cluster.report();
    assert_eq!(report.jobs_admitted, 3);
    assert_eq!(report.jobs_shed, 1);
    assert_eq!(report.jobs_completed, 3);
}

/// A pick-one problem whose `decode` parks the worker until the gate
/// opens. Unlike the `to_qubo` blocker in the session tests, the cluster
/// routes (and therefore encodes) on the *submitting* thread, so the park
/// must sit in a stage only workers run — decode — to build a backlog
/// deterministically.
struct GatedPick {
    costs: Vec<f64>,
    gate: Arc<Gate>,
}

#[derive(Default)]
struct Gate {
    release: (Mutex<bool>, Condvar),
    /// Decodes that reached the gate, open or not.
    arrivals: AtomicUsize,
}

impl Gate {
    fn opened() -> Arc<Self> {
        let gate = Arc::new(Self::default());
        gate.open();
        gate
    }

    /// Waits until `n` decodes have reached the gate, failing the test
    /// after 30 s instead of hanging it.
    fn await_arrivals(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.arrivals.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "only {:?} of {n} decodes arrived", self.arrivals);
            std::thread::yield_now();
        }
    }

    fn block(&self) {
        self.arrivals.fetch_add(1, Ordering::SeqCst);
        let (lock, cond) = &self.release;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cond.wait(open).unwrap();
        }
    }

    fn open(&self) {
        let (lock, cond) = &self.release;
        *lock.lock().unwrap() = true;
        cond.notify_all();
    }
}

/// Opens its gate when dropped. Declared after the cluster, it drops first,
/// so a failed assertion unwinds through the cluster's teardown instead of
/// hanging on a worker still parked in the gate.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

impl DmProblem for GatedPick {
    fn name(&self) -> String {
        "gated-pick".into()
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
        self.gate.block();
        let chosen: Vec<usize> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        Decoded {
            feasible: chosen.len() == 1,
            objective: chosen.iter().map(|&i| self.costs[i]).sum(),
            summary: format!("chose {chosen:?}"),
        }
    }
}

fn gated(costs: &[f64], gate: &Arc<Gate>) -> Arc<GatedPick> {
    Arc::new(GatedPick { costs: costs.to_vec(), gate: Arc::clone(gate) })
}

/// The costs every single-fingerprint backlog below is built from.
const BACKLOG_COSTS: [f64; 4] = [2.5, 0.5, 1.5, 3.5];

fn one_journal_per_shard(shards: usize) -> Vec<Arc<MemoryJournal>> {
    (0..shards).map(|_| Arc::new(MemoryJournal::new())).collect()
}

fn as_journals(journals: &[Arc<MemoryJournal>]) -> Vec<Arc<dyn Journal>> {
    journals.iter().map(|j| Arc::clone(j) as Arc<dyn Journal>).collect()
}

/// Every shard's own ledger balances: a job counts on the shard that
/// admitted it, wherever it ran.
fn assert_each_shard_balances(per_shard: &[RuntimeReport]) {
    for report in per_shard {
        assert_eq!(
            report.jobs_submitted,
            report.jobs_completed + report.jobs_failed + report.jobs_cancelled,
            "shard ledger out of balance: {report}"
        );
        assert_eq!(report.queue_depth, 0, "nothing left queued: {report}");
    }
}

fn journaled_id(event: &JournalEvent) -> u64 {
    match event {
        JournalEvent::Submitted(record) => record.job_id,
        JournalEvent::Completed { job_id, .. } | JournalEvent::Cancelled { job_id } => *job_id,
    }
}

/// Polls `handle` until it resolves, failing the test after `limit`
/// instead of hanging it.
fn wait_within(handle: &JobHandle, limit: Duration) -> JobOutcome {
    let start = Instant::now();
    loop {
        if let Some(outcome) = handle.try_result() {
            return outcome;
        }
        assert!(start.elapsed() < limit, "job {} unresolved after {limit:?}", handle.id());
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn migration_never_loses_or_duplicates_a_job() {
    const JOBS: u64 = 8;
    let journals = one_journal_per_shard(2);
    let cluster = ClusterService::new(ClusterConfig {
        shards: 2,
        service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
        migration_threshold: Some(0),
        journals: Some(as_journals(&journals)),
        ..Default::default()
    });
    let gate = Arc::new(Gate::default());
    let _unwedge = OpenOnDrop(Arc::clone(&gate));
    let session = cluster.session("t", SessionConfig { queue_capacity: 32, ..Default::default() });

    // Every job shares one canonical fingerprint, so all of them route to
    // the same home shard while its single worker is parked on the gate —
    // a guaranteed backlog. With a migration threshold of 0, the submit
    // path must rebalance that backlog onto the idle shard.
    let handles: Vec<JobHandle> = (0..JOBS)
        .map(|seed| session.submit(JobSpec::new(gated(&BACKLOG_COSTS, &gate), seed)).unwrap())
        .collect();
    // Hold the gate until both shards' workers are parked in it, so each
    // shard has run part of the backlog before either can drain the rest.
    gate.await_arrivals(2);

    gate.open();
    for handle in &handles {
        assert!(handle.wait().is_ok(), "a migrated job must still resolve its handle");
    }
    session.drain();
    let ids: HashSet<u64> = session.completions().map(|c| c.id).collect();
    assert_eq!(ids.len(), JOBS as usize, "every job completes exactly once");

    let merged = cluster.report();
    assert!(merged.migrations >= 1, "a depth spread of {JOBS} vs 0 must migrate: {merged}");
    assert_eq!(merged.jobs_submitted, JOBS);
    assert_eq!(merged.jobs_completed, JOBS);
    assert_eq!(merged.jobs_failed, 0);
    assert_eq!(merged.jobs_cancelled, 0);

    // Migration moves a job's execution, never its ledger entry: the home
    // shard admitted every job and counts every completion, and each
    // shard's own ledger and journal balance. Both shards ran part of the
    // backlog — the home worker its first job, the other shard the jobs
    // it ran for its peer.
    let home =
        cluster.shard_for_fingerprint(gated(&BACKLOG_COSTS, &gate).to_qubo().canonical_form().0);
    let per_shard = cluster.shard_reports();
    assert_each_shard_balances(&per_shard);
    assert_eq!(per_shard[home].jobs_submitted, JOBS);
    assert_eq!(per_shard[home].jobs_completed, JOBS);
    assert_eq!(per_shard[home].jobs_run_for_peers, 0, "home runs only its own jobs");
    let lent = per_shard[1 - home].jobs_run_for_peers;
    assert!(
        (1..JOBS).contains(&lent),
        "both shards should execute part of the backlog: {per_shard:?}"
    );
    for journal in &journals {
        assert!(unfinished(&journal.events()).is_empty(), "every journal is complete");
    }
}

#[test]
fn a_moved_job_finishes_in_the_journal_that_recorded_it() {
    // Regression: a migrated job used to write `Completed` into the
    // recipient's journal, so its home journal kept it unfinished forever
    // and a cluster rebuilt over the journals replayed delivered work.
    const JOBS: u64 = 8;
    let journals = one_journal_per_shard(2);
    let config = || ClusterConfig {
        shards: 2,
        service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
        migration_threshold: Some(0),
        journals: Some(as_journals(&journals)),
        ..Default::default()
    };
    let gate = Arc::new(Gate::default());
    {
        let cluster = ClusterService::new(config());
        let session =
            cluster.session("t", SessionConfig { queue_capacity: 32, ..Default::default() });
        let handles: Vec<JobHandle> = (0..JOBS)
            .map(|seed| session.submit(JobSpec::new(gated(&BACKLOG_COSTS, &gate), seed)).unwrap())
            .collect();
        gate.open();
        for handle in &handles {
            assert!(handle.wait().is_ok());
        }
        // The terminal record is appended after the handle resolves;
        // draining the session waits for it.
        session.drain();
    }
    for (shard, journal) in journals.iter().enumerate() {
        let open = unfinished(&journal.events());
        assert!(open.is_empty(), "shard {shard} journal still owes {} delivered jobs", open.len());
    }
    let rebuilt = ClusterService::new(config());
    assert!(rebuilt.recover().is_empty(), "a rebuilt cluster must replay nothing delivered");
}

#[test]
fn an_idle_shard_runs_a_wedged_peers_queue_for_its_owner() {
    // No migration: only the idle pull can move work between shards.
    let journals = one_journal_per_shard(2);
    let cluster = ClusterService::new(ClusterConfig {
        shards: 2,
        service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
        journals: Some(as_journals(&journals)),
        ..Default::default()
    });
    let shard_of = |costs: &[f64]| {
        cluster.shard_for_fingerprint(gated(costs, &Gate::opened()).to_qubo().canonical_form().0)
    };
    // Two instances whose fingerprints route to different shards.
    let family = |k: usize| {
        let mut costs = BACKLOG_COSTS.to_vec();
        costs[3] += k as f64;
        costs
    };
    let other = (1..).map(family).find(|c| shard_of(c) != shard_of(&BACKLOG_COSTS)).unwrap();
    let session = cluster.session("t", SessionConfig { queue_capacity: 16, ..Default::default() });

    // Wedge one worker in decode. Whichever shard's worker claimed the
    // job, the follow-up jobs go to *that* shard, whose only worker is
    // stuck: only the other shard's worker can run them.
    let gate = Arc::new(Gate::default());
    let _unwedge = OpenOnDrop(Arc::clone(&gate));
    let wedged_job = session.submit(JobSpec::new(gated(&BACKLOG_COSTS, &gate), 0)).unwrap();
    gate.await_arrivals(1);
    let home = shard_of(&BACKLOG_COSTS);
    let pulled_first = cluster.shard_reports()[1 - home].jobs_run_for_peers == 1;
    let (wedged, costs) = if pulled_first { (1 - home, other) } else { (home, family(0)) };
    assert_eq!(shard_of(&costs), wedged);
    let free = 1 - wedged;

    let open = Gate::opened();
    let spec = |seed| JobSpec::new(gated(&costs, &open), seed).on_backend("exact");
    let handles: Vec<JobHandle> = (1..=4).map(|seed| session.submit(spec(seed)).unwrap()).collect();
    let firsts: Vec<JobResult> = handles
        .iter()
        .map(|h| wait_within(h, Duration::from_secs(30)).expect("the free shard runs it"))
        .collect();
    assert_eq!(gate.arrivals.load(Ordering::SeqCst), 1, "the gate is still closed");

    // The free shard lent its worker; the wedged shard owns the jobs.
    let per_shard = cluster.shard_reports();
    assert_eq!(per_shard[free].jobs_run_for_peers, 4, "{per_shard:?}");
    assert_eq!(per_shard[free].jobs_completed, 0, "{per_shard:?}");
    assert_eq!(per_shard[wedged].jobs_completed, 4, "{per_shard:?}");
    assert_eq!(per_shard[wedged].cache_misses, 4, "{per_shard:?}");
    let open_ids: HashSet<u64> =
        unfinished(&journals[wedged].events()).iter().map(|r| r.job_id).collect();
    assert!(
        handles.iter().all(|h| !open_ids.contains(&h.id())),
        "completed in the owner's journal"
    );
    let lent_ids: HashSet<u64> = handles.iter().map(JobHandle::id).collect();
    assert!(
        journals[free].events().iter().all(|event| !lent_ids.contains(&journaled_id(event))),
        "the free shard journals nothing of the jobs it ran for its peer"
    );

    // The results were cached at the owner, where resubmissions route.
    let again = session.submit(spec(1)).unwrap();
    let again = wait_within(&again, Duration::from_secs(30)).expect("served");
    assert!(again.from_cache, "an exact resubmission is a cache hit at home");
    assert_eq!(again.report.bits, firsts[0].report.bits);
    let per_shard = cluster.shard_reports();
    assert_eq!(per_shard[wedged].cache_hits, 1);
    assert_eq!(per_shard[free].cache_hits, 0);

    gate.open();
    assert!(wedged_job.wait().is_ok());
    session.drain();
    let per_shard = cluster.shard_reports();
    assert_each_shard_balances(&per_shard);
    for journal in &journals {
        assert!(unfinished(&journal.events()).is_empty());
    }
}

#[test]
fn admission_meters_predicted_seconds_not_job_count() {
    // Two tenants with *identical* seconds budgets and a frozen clock (no
    // refill): one submits big 64-variable jobs, the other a flood of
    // 4-variable jobs. If admission metered job count they would be cut
    // off at the same number of jobs; metering predicted seconds cuts
    // both off within one job's cost of the same work budget. The gate
    // wedges the single worker in decode so every quote in the test is
    // the frozen cold calibration.
    let reg = SolverRegistry::standard();
    let sa = reg.find("simulated-annealing").expect("SA registered");
    let heavy_unit = analytic_seconds(&reg.get(sa).spec, CostShape::from_n_vars(64));
    let cheap_unit = analytic_seconds(&reg.get(sa).spec, CostShape::from_n_vars(4));
    let capacity = 2.5 * heavy_unit;
    let gate = Arc::new(Gate::default());
    let clock = Arc::new(ManualClock::new(0));
    let cluster = ClusterService::new(ClusterConfig {
        shards: 1,
        service: ServiceConfig { workers: 1, cache_capacity: 512, ..Default::default() },
        admission: AdmissionConfig::default()
            .with_default_bucket(TokenBucketConfig { capacity, refill_per_second: 0.0 }),
        clock: Some(clock.clone()),
        ..Default::default()
    });

    let heavy = cluster.session("heavy", SessionConfig::default());
    let heavy_spec = |seed| {
        let problem = Arc::new(GatedPick {
            costs: (0..64).map(|i| (i % 5) as f64 + 0.5).collect(),
            gate: Arc::clone(&gate),
        });
        JobSpec::new(problem, seed).on_backend("simulated-annealing")
    };
    let h1 = heavy.submit(heavy_spec(1)).expect("first heavy job fits the burst");
    let h2 = heavy.submit(heavy_spec(2)).expect("second heavy job fits the burst");
    assert!(heavy.submit(heavy_spec(3)).is_err(), "2.5 units of burst cannot cover a third");

    // Replicate the bucket's own draining arithmetic (sequential
    // subtraction, same f64 ops) to learn how many cheap jobs the
    // identical budget covers, instead of hardcoding estimator constants.
    let mut tokens = capacity;
    let mut fits = 0u64;
    while tokens >= cheap_unit {
        tokens -= cheap_unit;
        fits += 1;
    }
    assert!(fits > 50, "many cheap jobs should fit where two heavy ones did: {fits}");

    let bulk = cluster.session("bulk", SessionConfig { queue_capacity: 256, ..Default::default() });
    let bulk_spec = |seed| {
        let problem =
            Arc::new(GatedPick { costs: vec![2.5, 0.5, 1.5, 3.5], gate: Arc::clone(&gate) });
        JobSpec::new(problem, seed).on_backend("simulated-annealing")
    };
    let mut bulk_handles = Vec::new();
    for seed in 0..fits {
        bulk_handles.push(bulk.submit(bulk_spec(seed)).expect("within the seconds budget"));
    }
    assert!(bulk.submit(bulk_spec(fits)).is_err(), "the budget is seconds, not a job count");

    // Both tenants were stopped within one of their own jobs of the SAME
    // seconds budget — comparable throttling despite a 50×+ job-count gap.
    assert!(2.0 * heavy_unit <= capacity && 3.0 * heavy_unit > capacity);
    assert!(fits as f64 * cheap_unit <= capacity && (fits + 1) as f64 * cheap_unit > capacity);

    gate.open();
    assert!(h1.wait().is_ok());
    assert!(h2.wait().is_ok());
    for handle in &bulk_handles {
        assert!(handle.wait().is_ok());
    }
    heavy.drain();
    bulk.drain();
    let report = cluster.report();
    assert_eq!(report.jobs_shed, 2, "one refusal per tenant");
    assert_eq!(report.jobs_admitted, 2 + fits);
    assert_eq!(report.jobs_completed, 2 + fits);
}

#[test]
fn watermark_shedding_uses_the_injected_depth_probe() {
    struct Flooded;
    impl DepthProbe for Flooded {
        fn queue_depth(&self, _shard: usize) -> usize {
            100
        }
    }
    let cluster = ClusterService::new(ClusterConfig {
        shards: 2,
        service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
        shed_watermark: Some(10),
        shed_retry_hint: Duration::from_millis(125),
        depth_probe: Some(Arc::new(Flooded)),
        ..Default::default()
    });
    let session = cluster.session("t", SessionConfig::default());
    let err = session.submit(JobSpec::new(mqo(1), 1)).unwrap_err();
    assert_eq!(err.retry_after_hint(), Some(Duration::from_millis(125)));
    drop(session);
    let merged = cluster.report();
    assert_eq!(merged.jobs_shed, 1);
    assert_eq!(merged.jobs_submitted, 0, "a shed job never occupies a queue");
}
