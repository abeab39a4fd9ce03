//! Crash-safety integration tests: the durable job journal, deterministic
//! replay, and the snapshotted solution store.
//!
//! The scenario under test is always the same: a process accepts jobs,
//! dies at some stage of processing — post-submit, mid-compile, mid-solve
//! (between checkpoints), or pre-serve — and a fresh process reconstructed
//! over the same journal replays every unfinished job **bit-identically**
//! while losing nothing and resurrecting nothing. Crashes are simulated
//! with injected faults and [`SolverService::simulate_crash`]; nothing in
//! this file sleeps on wall-clock time — parked backoffs and injected
//! delays run on a [`ManualClock`].

use qdm::prelude::*;
use qdm::qubo::model::QuboModel;
use qdm::qubo::penalty;
use qdm::qubo::probe::{SolverCheckpoint, StageProbe};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Minimal pick-one problem (same shape as the robustness tests): `n`
/// binary choices, exactly one must be set.
struct PickOne {
    costs: Vec<f64>,
}

impl DmProblem for PickOne {
    fn name(&self) -> String {
        format!("recovery-pick-{}", self.costs.len())
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
    Arc::new(PickOne { costs: (0..n).map(|i| ((i * 7) % 13) as f64 + 0.25).collect() })
}

/// A manually opened latch: `block()` parks the calling thread until some
/// other thread calls `open()`.
struct Gate {
    release: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Self { release: Mutex::new(false), cv: Condvar::new() })
    }
    fn open(&self) {
        *self.release.lock().unwrap() = true;
        self.cv.notify_all();
    }
    fn block(&self) {
        let mut open = self.release.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

/// Opens its gate when dropped. Declared after the service, it drops first,
/// so a failed assertion unwinds through the service's teardown instead of
/// hanging on a worker still parked in the gate.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// Pick-one whose `decode` blocks on a gate: pins the single worker inside
/// a job (pre-serve) so the test controls exactly what is in the queue
/// when the crash hits.
struct GatedPick {
    costs: Vec<f64>,
    gate: Arc<Gate>,
    /// Opened by `decode` on entry, so tests can wait until the worker is
    /// provably pinned inside this job before acting.
    entered: Arc<Gate>,
}

impl DmProblem for GatedPick {
    fn name(&self) -> String {
        format!("recovery-gated-{}", self.costs.len())
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
        self.entered.open();
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

/// Zero-sleep retry policy for single-attempt crash tests.
fn no_retries() -> RetryPolicy {
    RetryPolicy { max_retries: 0, backoff_base: Duration::ZERO, backoff_cap: Duration::ZERO }
}

/// The ledger must balance no matter where the crash hit.
fn assert_balanced(report: &RuntimeReport) {
    assert_eq!(
        report.jobs_submitted,
        report.jobs_completed + report.jobs_failed + report.jobs_cancelled,
        "ledger out of balance: {report}"
    );
    assert_eq!(report.queue_depth, 0, "no job may be left behind in a queue: {report}");
}

fn bits_energy_backend(outcome: &JobOutcome) -> (Vec<bool>, f64, String) {
    let result = outcome.as_ref().expect("job must resolve successfully");
    (result.report.bits.clone(), result.report.energy, result.backend.clone())
}

// ---------------------------------------------------------------------------
// Crash-site matrix, single service: die mid-compile / mid-solve /
// pre-serve, recover from the journal, replay bit-identically.
// ---------------------------------------------------------------------------

#[test]
fn crash_at_each_site_replays_bit_identically() {
    for site in [FaultSite::Compile, FaultSite::Solve, FaultSite::Serve] {
        let label = format!("site={}", site.name());
        let spec = || JobSpec::new(pick(6), 42);

        // Clean baseline: what the job produces when nothing crashes.
        let baseline = SolverService::new(ServiceConfig {
            workers: 1,
            cache_capacity: 16,
            ..Default::default()
        })
        .run(spec());
        let expected = bits_energy_backend(&baseline);

        // Doomed run: the fault kills the one allowed attempt at `site`,
        // so the job dies with a `Submitted` record and no terminal one —
        // exactly what a process crash at that stage leaves behind.
        let journal = Arc::new(MemoryJournal::new());
        let plan = Arc::new(FaultPlan::new().fail_at(
            site,
            FaultWhen::Nth(1),
            FaultAction::Panic("crash-site matrix".into()),
        ));
        let doomed = SolverService::new(ServiceConfig {
            workers: 1,
            cache_capacity: 16,
            injector: Some(Arc::clone(&plan) as _),
            retry: no_retries(),
            journal: Some(Arc::clone(&journal) as _),
            ..Default::default()
        });
        let outcome = doomed.run(spec());
        assert!(outcome.is_err(), "{label}: the injected crash must kill the job");
        assert_eq!(plan.fired(), 1, "{label}: the armed fault must actually fire");
        drop(doomed);

        let open = unfinished(&journal.events());
        assert_eq!(open.len(), 1, "{label}: the dead job must be journaled as unfinished");
        assert_eq!(open[0].seed, 42, "{label}: the journal must capture the seed verbatim");

        // Recovery: a fresh service over the same journal replays the job
        // from its journaled QUBO + seed and converges the journal.
        let recovered = SolverService::new(ServiceConfig {
            workers: 1,
            cache_capacity: 16,
            journal: Some(Arc::clone(&journal) as _),
            ..Default::default()
        });
        let handles = recovered.recover(journal.as_ref());
        assert_eq!(handles.len(), 1, "{label}");
        let replayed = handles[0].wait();
        assert_eq!(
            bits_energy_backend(&replayed),
            expected,
            "{label}: replay must be bit-identical"
        );

        let report = recovered.report();
        assert_eq!(report.jobs_recovered, 1, "{label}");
        assert_eq!(report.jobs_completed, 1, "{label}");
        assert_balanced(&report);
        drop(recovered);
        assert!(
            unfinished(&journal.events()).is_empty(),
            "{label}: the replayed completion must converge the journal"
        );
    }
}

// ---------------------------------------------------------------------------
// Post-submit crash: the job is accepted and journaled but no worker ever
// picks it up before the process dies.
// ---------------------------------------------------------------------------

#[test]
fn post_submit_crash_recovers_queued_job() {
    let journal = Arc::new(MemoryJournal::new());
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        journal: Some(Arc::clone(&journal) as _),
        ..Default::default()
    });

    // Pin the single worker inside the blocker's decode (pre-serve), then
    // queue the target behind it: the target is journaled but unpicked.
    let gate = Gate::new();
    let _unwedge = OpenOnDrop(Arc::clone(&gate));
    let entered = Gate::new();
    let blocker: SharedProblem = Arc::new(GatedPick {
        costs: vec![1.0, 0.5, 2.0],
        gate: Arc::clone(&gate),
        entered: Arc::clone(&entered),
    });
    let target_problem = pick(7);
    let session = service.session(SessionConfig::default());
    let _blocker_handle = session.submit(JobSpec::new(blocker, 5));
    let target_handle = session.submit(JobSpec::new(Arc::clone(&target_problem), 43));
    let target_id = target_handle.id();
    drop(session);
    // Only crash once the worker is provably pinned inside the blocker —
    // otherwise the drain could empty the queue before anything ran.
    entered.block();

    // Crash on a helper thread: `simulate_crash` marks the service dying
    // and drains the queue (dropping the target's spec — observable as the
    // problem Arc's strong count falling back to ours) but cannot join the
    // gated worker until we open the gate.
    let crasher = std::thread::spawn(move || service.simulate_crash());
    let deadline = Instant::now() + Duration::from_secs(30);
    while Arc::strong_count(&target_problem) != 1 {
        assert!(Instant::now() < deadline, "the crash never dropped the queued target");
        std::thread::yield_now();
    }
    gate.open();
    crasher.join().expect("crash simulation must not panic");
    assert!(
        target_handle.try_result().is_none(),
        "a crashed-away job resolves on nobody's handle, like a real dead process"
    );

    // The blocker finished (journal converged); only the target is open.
    let open = unfinished(&journal.events());
    assert_eq!(open.len(), 1, "exactly the queued-but-unpicked job is unfinished");
    assert_eq!(open[0].job_id, target_id);

    // Baseline for the target, then recover and compare.
    let expected = bits_energy_backend(
        &SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() })
            .run(JobSpec::new(pick(7), 43)),
    );
    let recovered = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        journal: Some(Arc::clone(&journal) as _),
        ..Default::default()
    });
    let handles = recovered.recover(journal.as_ref());
    assert_eq!(handles.len(), 1);
    assert_eq!(handles[0].id(), target_id, "recovery must reuse the journaled job id");
    assert_eq!(bits_energy_backend(&handles[0].wait()), expected);
    assert_balanced(&recovered.report());
    drop(recovered);
    assert!(unfinished(&journal.events()).is_empty());
}

// ---------------------------------------------------------------------------
// Mid-solve crash between checkpoints: the solver has emitted resumable
// checkpoints when the process dies; replay still reproduces the original
// trajectory exactly because the journal pins QUBO + seed + backend.
// ---------------------------------------------------------------------------

/// Checkpoint-subscribed probe that kills the attempt at the `limit`-th
/// checkpoint — a crash *between* restart boundaries of a live solve.
struct CheckpointCrash {
    seen: AtomicUsize,
    limit: usize,
    saw_rng_state: AtomicBool,
}

impl StageProbe for CheckpointCrash {
    fn wants_checkpoints(&self) -> bool {
        true
    }
    fn on_checkpoint(&self, checkpoint: &SolverCheckpoint) {
        if checkpoint.rng_state.is_some() {
            self.saw_rng_state.store(true, Ordering::SeqCst);
        }
        let n = self.seen.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.limit {
            panic!("injected crash at solver checkpoint {n}");
        }
    }
}

#[test]
fn mid_solve_crash_between_checkpoints_replays_bit_identically() {
    let spec = |probe: Option<Arc<dyn StageProbe>>| {
        let options = PipelineOptions { probe, ..Default::default() };
        let mut spec = JobSpec::new(pick(9), 77).with_options(options);
        spec.backend = BackendChoice::Named("simulated-annealing".into());
        spec
    };

    let baseline =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() })
            .run(spec(None));
    let expected = bits_energy_backend(&baseline);

    // Doomed run: the probe panics at the second checkpoint, i.e. after
    // the solver has already made resumable progress.
    let journal = Arc::new(MemoryJournal::new());
    let probe = Arc::new(CheckpointCrash {
        seen: AtomicUsize::new(0),
        limit: 2,
        saw_rng_state: AtomicBool::new(false),
    });
    let doomed = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        retry: no_retries(),
        journal: Some(Arc::clone(&journal) as _),
        ..Default::default()
    });
    let outcome = doomed.run(spec(Some(Arc::clone(&probe) as _)));
    assert!(outcome.is_err(), "the mid-solve crash must kill the job");
    assert_eq!(
        probe.seen.load(Ordering::SeqCst),
        2,
        "the crash must land at the second checkpoint, after real progress"
    );
    assert!(
        probe.saw_rng_state.load(Ordering::SeqCst),
        "sequential SA checkpoints must carry resumable RNG state"
    );
    drop(doomed);

    // Probes are observation-only and deliberately not journaled: the
    // replay runs the identical solve trajectory from scratch, clean.
    let open = unfinished(&journal.events());
    assert_eq!(open.len(), 1);
    assert_eq!(open[0].backend, BackendChoice::Named("simulated-annealing".into()));

    let recovered = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        journal: Some(Arc::clone(&journal) as _),
        ..Default::default()
    });
    let handles = recovered.recover(journal.as_ref());
    assert_eq!(handles.len(), 1);
    assert_eq!(bits_energy_backend(&handles[0].wait()), expected);
    assert_balanced(&recovered.report());
    // Join the workers before inspecting the journal: the terminal record
    // lands right after the waiter wakes, not before.
    drop(recovered);
    assert!(unfinished(&journal.events()).is_empty());
}

// ---------------------------------------------------------------------------
// Cancelled jobs are terminal: recovery must not resurrect them.
// ---------------------------------------------------------------------------

#[test]
fn cancelled_jobs_are_not_resurrected() {
    let journal = Arc::new(MemoryJournal::new());
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        journal: Some(Arc::clone(&journal) as _),
        ..Default::default()
    });
    let gate = Gate::new();
    let _unwedge = OpenOnDrop(Arc::clone(&gate));
    let blocker: SharedProblem = Arc::new(GatedPick {
        costs: vec![0.5, 1.5],
        gate: Arc::clone(&gate),
        entered: Gate::new(),
    });
    let session = service.session(SessionConfig::default());
    let _blocker_handle = session.submit(JobSpec::new(blocker, 1));
    let victim = session.submit(JobSpec::new(pick(5), 2));
    assert_eq!(victim.cancel(), CancelStatus::Cancelled, "still queued, so removable");
    gate.open();
    drop(session);
    drop(service);

    assert!(
        unfinished(&journal.events()).is_empty(),
        "a queue-cancelled job has a terminal journal record and must not replay"
    );
    let recovered = SolverService::new(ServiceConfig::default());
    assert!(recovered.recover(journal.as_ref()).is_empty());
}

// ---------------------------------------------------------------------------
// FileJournal: the same story through a real on-disk WAL reopened by a
// "new process", plus the snapshotted solution store round-tripping
// through its file format.
// ---------------------------------------------------------------------------

#[test]
fn file_journal_and_snapshot_survive_process_restart() {
    let dir = std::env::temp_dir();
    let journal_path = dir.join(format!("qdm-recovery-{}.journal", std::process::id()));
    let snapshot_path = dir.join(format!("qdm-recovery-{}.snapshot", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(&snapshot_path);

    // Process 1: one job completes, a second dies mid-solve.
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Solve,
        FaultWhen::Nth(2),
        FaultAction::Panic("file-journal crash".into()),
    ));
    let journal1 = Arc::new(FileJournal::open(&journal_path).expect("open fresh journal"));
    let service1 = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        injector: Some(Arc::clone(&plan) as _),
        retry: no_retries(),
        journal: Some(Arc::clone(&journal1) as _),
        ..Default::default()
    });
    let ok = service1.run(JobSpec::new(pick(5), 10));
    assert!(ok.is_ok());
    let dead = service1.run(JobSpec::new(pick(8), 11));
    assert!(dead.is_err());
    drop(service1);
    drop(journal1);

    // Process 2: reopen the WAL from disk, replay the dead job, snapshot
    // the rebuilt solution store to disk.
    let journal2 = Arc::new(FileJournal::open(&journal_path).expect("reopen journal"));
    let open = unfinished(&journal2.events());
    assert_eq!(open.len(), 1, "only the mid-solve casualty is unfinished after reopen");
    assert_eq!(open[0].seed, 11);
    let expected = bits_energy_backend(
        &SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() })
            .run(JobSpec::new(pick(8), 11)),
    );
    let service2 = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        journal: Some(Arc::clone(&journal2) as _),
        ..Default::default()
    });
    let handles = service2.recover(journal2.as_ref());
    assert_eq!(handles.len(), 1);
    assert_eq!(bits_energy_backend(&handles[0].wait()), expected);
    let snapshot = service2.save_snapshot();
    assert_eq!(snapshot.len(), 1, "the replayed result must be in the exported store");
    snapshot.write_to(&snapshot_path).expect("persist snapshot");
    assert_eq!(service2.report().snapshot_saved, 1);
    drop(service2);
    drop(journal2);
    assert!(unfinished(&FileJournal::open(&journal_path).unwrap().events()).is_empty());

    // Process 3: warm-start from the snapshot alone — the previously
    // solved job is served from the store, bit-identically.
    let restored = SolutionSnapshot::read_from(&snapshot_path).expect("reload snapshot");
    let service3 =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    service3.load_snapshot(&restored);
    assert_eq!(service3.report().snapshot_loaded, 1);
    let warm = service3.run(JobSpec::new(pick(8), 11));
    let result = warm.as_ref().expect("warm run must succeed");
    assert!(result.from_cache, "a snapshotted result must be served from the store");
    assert_eq!(bits_energy_backend(&warm), expected);

    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(&snapshot_path);
}

// ---------------------------------------------------------------------------
// Cluster crash: every shard dies with jobs in flight; a cluster rebuilt
// over the same per-shard journals loses nothing, duplicates nothing, and
// replays every job on its original shard.
// ---------------------------------------------------------------------------

#[test]
fn cluster_crash_recovers_every_shard_bit_identically() {
    for site in [FaultSite::Compile, FaultSite::Solve, FaultSite::Serve] {
        let label = format!("site={}", site.name());
        let shard_count = 4;
        let sizes: Vec<usize> = (3..15).collect();
        // Pinned: Auto routing prices backends from wall-clock calibration,
        // so two clusters may route one job to serial or parallel SA. This
        // test is about recovery, not routing.
        let specs = |sizes: &[usize]| -> Vec<JobSpec> {
            sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    JobSpec::new(pick(n), 100 + i as u64).on_backend("simulated-annealing")
                })
                .collect()
        };

        // Clean baseline cluster: same sharding, same per-shard arrival
        // order, no faults — the reference trajectory per seed.
        let baseline = ClusterService::new(ClusterConfig {
            shards: shard_count,
            service: ServiceConfig { workers: 1, cache_capacity: 32, ..Default::default() },
            ..Default::default()
        });
        let mut expected = std::collections::HashMap::new();
        {
            let session = baseline.session("tenant-a", SessionConfig::default());
            let handles: Vec<JobHandle> = specs(&sizes)
                .into_iter()
                .map(|spec| session.submit(spec).expect("admitted"))
                .collect();
            for (i, handle) in handles.iter().enumerate() {
                expected.insert(100 + i as u64, bits_energy_backend(&handle.wait()));
            }
        }
        drop(baseline);

        // Doomed cluster: every shard journals its own jobs; the injected
        // fault kills every single-attempt job at `site`.
        let journals: Vec<Arc<MemoryJournal>> =
            (0..shard_count).map(|_| Arc::new(MemoryJournal::new())).collect();
        let journal_dyn: Vec<Arc<dyn Journal>> =
            journals.iter().map(|j| Arc::clone(j) as _).collect();
        let plan = Arc::new(FaultPlan::new().fail_at(
            site,
            FaultWhen::Always,
            FaultAction::Panic("cluster crash".into()),
        ));
        let doomed = ClusterService::new(ClusterConfig {
            shards: shard_count,
            service: ServiceConfig {
                workers: 1,
                cache_capacity: 32,
                injector: Some(Arc::clone(&plan) as _),
                retry: no_retries(),
                ..Default::default()
            },
            journals: Some(journal_dyn.clone()),
            ..Default::default()
        });
        let submitted_ids: HashSet<u64> = {
            let session = doomed.session("tenant-a", SessionConfig::default());
            let handles: Vec<JobHandle> = specs(&sizes)
                .into_iter()
                .map(|spec| session.submit(spec).expect("admitted"))
                .collect();
            for handle in &handles {
                assert!(handle.wait().is_err(), "{label}: every job must die at the fault");
            }
            handles.iter().map(JobHandle::id).collect()
        };
        assert_eq!(plan.fired(), sizes.len() as u64, "{label}");
        doomed.simulate_crash();

        // Every journal record belongs to its shard, and the ring (a pure
        // function of the shard count) still routes its fingerprint there.
        let per_shard_open: Vec<usize> =
            journals.iter().map(|j| unfinished(&j.events()).len()).collect();
        assert_eq!(per_shard_open.iter().sum::<usize>(), sizes.len(), "{label}: no job lost");

        // Rebuilt cluster over the *same* journals, fault-free.
        let rebuilt = ClusterService::new(ClusterConfig {
            shards: shard_count,
            service: ServiceConfig { workers: 1, cache_capacity: 32, ..Default::default() },
            journals: Some(journal_dyn),
            ..Default::default()
        });
        for (shard, journal) in journals.iter().enumerate() {
            for record in unfinished(&journal.events()) {
                assert_eq!(record.shard, Some(shard as u64), "{label}");
                assert_eq!(record.tenant.as_deref(), Some("tenant-a"), "{label}");
                let (fingerprint, _) = record.qubo.canonical_form();
                assert_eq!(
                    rebuilt.shard_for_fingerprint(fingerprint),
                    shard,
                    "{label}: recovery must preserve ring affinity"
                );
            }
        }
        // Capture the id → seed map *before* recovery starts: replayed
        // completions converge the journals concurrently.
        let open_by_id: std::collections::HashMap<u64, u64> = journals
            .iter()
            .flat_map(|j| unfinished(&j.events()))
            .map(|r| (r.job_id, r.seed))
            .collect();
        let handles = rebuilt.recover();
        let recovered_ids: HashSet<u64> = handles.iter().map(JobHandle::id).collect();
        assert_eq!(
            recovered_ids, submitted_ids,
            "{label}: exactly the submitted ids replay — none lost, none duplicated"
        );
        // Bit-identity per seed: recovered outcomes must match the clean
        // cluster's trajectory for the same submission.
        for handle in &handles {
            let seed = open_by_id[&handle.id()];
            assert_eq!(
                bits_energy_backend(&handle.wait()),
                expected[&seed],
                "{label}: shard replay must be bit-identical"
            );
        }

        let merged = rebuilt.report();
        assert_eq!(merged.jobs_recovered, sizes.len() as u64, "{label}");
        assert_eq!(merged.jobs_completed, sizes.len() as u64, "{label}");
        assert_balanced(&merged);
        for (shard, report) in rebuilt.shard_reports().iter().enumerate() {
            assert_eq!(
                report.jobs_recovered as usize, per_shard_open[shard],
                "{label}: each shard replays exactly its own journal"
            );
        }
        drop(rebuilt);
        for journal in &journals {
            assert!(unfinished(&journal.events()).is_empty(), "{label}: journals converge");
        }
    }
}

// ---------------------------------------------------------------------------
// Clock-driven waits (no wall-clock sleeps): retry backoff parks the job
// and frees the worker; injected Delay faults wait on the injected clock.
// ---------------------------------------------------------------------------

#[test]
fn retry_backoff_parks_job_and_frees_worker() {
    let clock = Arc::new(ManualClock::new(1_000_000));
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Solve,
        FaultWhen::Nth(1),
        FaultAction::Panic("first attempt dies".into()),
    ));
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        injector: Some(Arc::clone(&plan) as _),
        retry: RetryPolicy {
            max_retries: 1,
            backoff_base: Duration::from_secs(5),
            backoff_cap: Duration::from_secs(5),
        },
        clock: Some(Arc::clone(&clock) as _),
        ..Default::default()
    });
    let session = service.session(SessionConfig::default());

    // Job A fails its first attempt and parks for the 5s backoff. With the
    // manual clock frozen, that backoff never elapses on its own — yet job
    // B, submitted behind it, completes: the single worker was not blocked
    // sleeping out A's backoff.
    let a = session.submit(JobSpec::new(pick(5), 21));
    let b = session.submit(JobSpec::new(pick(6), 22));
    assert!(b.wait().is_ok(), "the worker must be free to run B during A's backoff");
    assert!(
        a.try_result().is_none(),
        "A must still be parked: its backoff is on the frozen manual clock"
    );
    assert_eq!(plan.fired(), 1);

    // Advancing the clock past the backoff releases A without any thread
    // ever sleeping for real.
    clock.advance(60_000_000);
    assert!(a.wait().is_ok(), "A must complete once the clock passes its backoff");

    let report = service.report();
    assert_eq!(report.jobs_retried, 1);
    assert_eq!(report.jobs_completed, 2);
    assert_balanced(&report);
}

#[test]
fn injected_delay_fault_waits_on_the_injected_clock() {
    let clock = Arc::new(ManualClock::new(0));
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Solve,
        FaultWhen::Nth(1),
        FaultAction::Delay(Duration::from_secs(10)),
    ));
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        injector: Some(Arc::clone(&plan) as _),
        clock: Some(Arc::clone(&clock) as _),
        ..Default::default()
    });
    let session = service.session(SessionConfig::default());
    let handle = session.submit(JobSpec::new(pick(5), 31));

    // A 10-second injected delay would hang a wall-clock sleep; on the
    // injected clock it discharges as fast as we advance it.
    while handle.try_result().is_none() {
        clock.advance(1_000_000);
        std::thread::yield_now();
    }
    assert!(handle.wait().is_ok());
    assert_eq!(plan.fired(), 1);
    assert_balanced(&service.report());
}
