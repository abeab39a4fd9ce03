//! Integration tests for the handle-based asynchronous submission API:
//! backpressure on the bounded session queue, cancellation of queued jobs,
//! streaming completions vs. handle waits, priority lanes, and bit-identical
//! equivalence between `run_batch` and session submission.

use qdm::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Condvar, Mutex};

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

/// A signalling gate: `block()` (called from the worker) reports that the
/// job started and parks until the test calls `open()`.
#[derive(Default)]
struct Gate {
    started: (Mutex<bool>, Condvar),
    release: (Mutex<bool>, Condvar),
}

impl Gate {
    fn block(&self) {
        {
            let (lock, cond) = &self.started;
            *lock.lock().unwrap() = true;
            cond.notify_all();
        }
        let (lock, cond) = &self.release;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cond.wait(open).unwrap();
        }
    }

    fn wait_started(&self) {
        let (lock, cond) = &self.started;
        let mut started = lock.lock().unwrap();
        while !*started {
            started = cond.wait(started).unwrap();
        }
    }

    fn open(&self) {
        let (lock, cond) = &self.release;
        *lock.lock().unwrap() = true;
        cond.notify_all();
    }
}

/// A job that parks its worker on the gate inside `to_qubo`, simulating a
/// slow solver deterministically.
struct Blocker {
    gate: Arc<Gate>,
}

impl DmProblem for Blocker {
    fn name(&self) -> String {
        "blocker".into()
    }
    fn n_vars(&self) -> usize {
        2
    }
    fn to_qubo(&self) -> QuboModel {
        self.gate.block();
        let mut q = QuboModel::new(2);
        q.add_linear(0, 1.0).add_linear(1, 2.0);
        q
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        Decoded { feasible: true, objective: 0.0, summary: format!("{bits:?}") }
    }
}

fn quick(seed: u64) -> JobSpec {
    JobSpec::new(mqo(seed), seed).with_options(repair())
}

#[test]
fn handle_results_are_bit_identical_to_run_batch() {
    // Two fresh services (so no shared cache): handle-based submission must
    // reproduce run_batch bit for bit under identical (problem, options,
    // seed, backend). Backends are pinned so routing cannot differ.
    let specs = || -> Vec<JobSpec> {
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
    };

    let batch_service =
        SolverService::new(ServiceConfig { workers: 3, cache_capacity: 64, ..Default::default() });
    let batch_outcomes = batch_service.run_batch(specs());

    let session_service =
        SolverService::new(ServiceConfig { workers: 3, cache_capacity: 64, ..Default::default() });
    let session =
        session_service.session(SessionConfig { queue_capacity: 16, ..Default::default() });
    let handles: Vec<JobHandle> = specs().into_iter().map(|s| session.submit(s)).collect();

    for (handle, batch_outcome) in handles.iter().zip(&batch_outcomes) {
        let via_handle = handle.wait().expect("solvable");
        let via_batch = batch_outcome.as_ref().expect("solvable");
        assert_eq!(via_handle.report.bits, via_batch.report.bits, "bits must be identical");
        assert_eq!(via_handle.report.energy, via_batch.report.energy);
        assert_eq!(via_handle.backend, via_batch.backend);
        assert_eq!(via_handle.report.decoded.summary, via_batch.report.decoded.summary);
    }
}

#[test]
fn bounded_queue_rejects_and_blocks_under_slow_solver() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 2, ..Default::default() });
    let gate = Arc::new(Gate::default());

    // The single worker picks the blocker up and parks; the queue is empty.
    let blocker = session.submit(JobSpec::new(Arc::new(Blocker { gate: Arc::clone(&gate) }), 1));
    gate.wait_started();

    // Fill the bounded queue, then overflow it.
    let queued_a = session.submit(quick(100));
    let queued_b = session.submit(quick(101));
    let rejected = session.try_submit(quick(102));
    let spec = match rejected {
        Err(SubmitError::QueueFull(spec)) => spec,
        Err(other) => panic!("expected QueueFull, got {other:?}"),
        Ok(_) => panic!("queue of capacity 2 with 2 queued jobs must reject"),
    };
    assert_eq!(service.report().backpressure_rejections, 1);

    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| session.submit(spec).wait());
        // The blocking submit must actually sleep on the condvar before we
        // let the worker drain the queue.
        while service.report().backpressure_waits == 0 {
            std::thread::yield_now();
        }
        gate.open();
        assert!(waiter.join().expect("no panic").is_ok());
    });

    assert!(blocker.wait().is_ok());
    assert!(queued_a.wait().is_ok());
    assert!(queued_b.wait().is_ok());
    session.drain();
    let report = service.report();
    assert_eq!(report.jobs_submitted, 4);
    assert_eq!(report.jobs_completed, 4);
    assert_eq!(report.backpressure_waits, 1);
    assert_eq!(report.queue_depth, 0);
    assert!(report.queue_depth_peak >= 2);
}

#[test]
fn cancelling_a_queued_job_removes_it_before_any_worker() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let gate = Arc::new(Gate::default());

    let blocker = session.submit(JobSpec::new(Arc::new(Blocker { gate: Arc::clone(&gate) }), 1));
    gate.wait_started();

    let victim = session.submit(quick(200));
    assert!(victim.try_result().is_none(), "still queued behind the blocker");
    assert_eq!(victim.cancel(), CancelStatus::Cancelled);
    assert!(matches!(victim.wait(), Err(JobError::Cancelled)));
    assert_eq!(victim.cancel(), CancelStatus::Finished, "second cancel is a no-op");

    gate.open();
    session.drain();
    assert!(blocker.wait().is_ok());

    let report = service.report();
    assert_eq!(report.jobs_cancelled, 1);
    assert_eq!(report.jobs_submitted, 2);
    assert_eq!(report.jobs_completed, 1, "the cancelled job never ran");

    // The completion stream saw both jobs: the cancellation immediately,
    // the blocker when it finished.
    let completions: Vec<Completion> = session.completions().collect();
    assert_eq!(completions.len(), 2);
    assert_eq!(completions[0].id, victim.id());
    assert!(matches!(completions[0].outcome, Err(JobError::Cancelled)));
    assert_eq!(completions[1].id, blocker.id());
    assert!(completions[1].outcome.is_ok());
}

#[test]
fn completions_stream_in_finish_order_and_match_handle_waits() {
    let service =
        SolverService::new(ServiceConfig { workers: 4, cache_capacity: 64, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 16, ..Default::default() });
    let handles: Vec<JobHandle> = (0..8).map(|i| session.submit(quick(300 + i))).collect();

    // Stream everything currently in flight; the iterator ends on its own.
    let completions: Vec<Completion> = session.completions().collect();
    assert_eq!(completions.len(), handles.len());

    // Every submitted job appears exactly once, and the streamed outcome is
    // exactly what the handle reports.
    for handle in &handles {
        let streamed: Vec<&Completion> =
            completions.iter().filter(|c| c.id == handle.id()).collect();
        assert_eq!(streamed.len(), 1, "job {} must stream exactly once", handle.id());
        let via_stream = streamed[0].outcome.as_ref().expect("solvable");
        let via_wait = handle.wait().expect("solvable");
        assert_eq!(via_stream.report.bits, via_wait.report.bits);
        assert_eq!(via_stream.report.energy, via_wait.report.energy);
        assert_eq!(via_stream.backend, via_wait.backend);
        assert_eq!(via_stream.job_id, via_wait.job_id);
    }
}

#[test]
fn high_priority_jobs_jump_the_queue() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let gate = Arc::new(Gate::default());

    let blocker = session.submit(JobSpec::new(Arc::new(Blocker { gate: Arc::clone(&gate) }), 1));
    gate.wait_started();

    // Queued while the only worker is parked: low first, high second.
    let low = session.submit(quick(400).with_priority(JobPriority::Low));
    let high = session.submit(quick(401).with_priority(JobPriority::High));
    gate.open();

    let order: Vec<u64> = session.completions().map(|c| c.id).collect();
    assert_eq!(
        order,
        vec![blocker.id(), high.id(), low.id()],
        "the high-priority job must overtake the earlier low-priority one"
    );
}

#[test]
fn repeated_cancel_of_a_running_job_counts_once() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let gate = Arc::new(Gate::default());

    let blocker = session.submit(JobSpec::new(Arc::new(Blocker { gate: Arc::clone(&gate) }), 1));
    gate.wait_started();

    // The worker already picked the job up: cancel cannot dequeue it, but
    // marks it so late waiters see `Cancelled`. Repeats change nothing.
    assert_eq!(blocker.cancel(), CancelStatus::Running);
    assert_eq!(blocker.cancel(), CancelStatus::Running);
    assert_eq!(service.report().jobs_cancelled, 1, "one job, one effective cancellation");

    gate.open();
    assert!(matches!(blocker.wait(), Err(JobError::Cancelled)));
    assert_eq!(blocker.cancel(), CancelStatus::Finished);
    let report = service.report();
    assert_eq!(report.jobs_cancelled, 1);
    // The solve itself ran to completion (and was cached), but the job's
    // delivered outcome is `Cancelled`: it must count in exactly one ledger
    // bucket, not both (the old double-count listed it completed too).
    assert_eq!(report.jobs_completed, 0);
    assert_eq!(
        report.jobs_submitted,
        report.jobs_completed + report.jobs_failed + report.jobs_cancelled
    );
}

#[test]
fn job_cancelled_mid_run_counts_cancelled_not_completed_yet_still_caches() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let gate = Arc::new(Gate::default());

    let blocker = session.submit(JobSpec::new(Arc::new(Blocker { gate: Arc::clone(&gate) }), 1));
    gate.wait_started();
    assert_eq!(blocker.cancel(), CancelStatus::Running);
    gate.open();
    assert!(matches!(blocker.wait(), Err(JobError::Cancelled)));

    let report = service.report();
    assert_eq!(report.jobs_submitted, 1);
    assert_eq!(report.jobs_cancelled, 1);
    assert_eq!(report.jobs_completed, 0, "a cancelled job must not also count completed");
    assert_eq!(report.cache_misses, 1, "the solve itself really happened");

    // The finished solve populated the cache: resubmitting the identical
    // spec (the gate is open now) is served as a hit and counts completed.
    let gate2 = Arc::clone(&gate);
    let again = session.submit(JobSpec::new(Arc::new(Blocker { gate: gate2 }), 1));
    let result = again.wait().expect("uncancelled resubmission succeeds");
    assert!(result.from_cache, "the cancelled run's solve must have been cached");
    let report = service.report();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.jobs_cancelled, 1, "the earlier cancellation stays counted once");
}

#[test]
fn job_cancelled_mid_run_that_fails_routing_counts_cancelled_not_failed() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let gate = Arc::new(Gate::default());

    // The job blocks in `to_qubo`, is cancelled while running, and then
    // fails routing (unknown backend). It counted in `jobs_failed`, and the
    // cancel counted it in `jobs_cancelled` — the conversion must give back
    // the failed count so the job lands in exactly one ledger bucket.
    let doomed = session.submit(
        JobSpec::new(Arc::new(Blocker { gate: Arc::clone(&gate) }), 1).on_backend("warp-drive"),
    );
    gate.wait_started();
    assert_eq!(doomed.cancel(), CancelStatus::Running);
    gate.open();
    assert!(matches!(doomed.wait(), Err(JobError::Cancelled)));

    let report = service.report();
    assert_eq!(report.jobs_submitted, 1);
    assert_eq!(report.jobs_cancelled, 1);
    assert_eq!(report.jobs_failed, 0, "the failure was superseded by the cancellation");
    assert_eq!(report.jobs_completed, 0);
    assert_eq!(
        report.jobs_submitted,
        report.jobs_completed + report.jobs_failed + report.jobs_cancelled
    );
}

#[test]
fn completions_iterator_is_fused_across_later_submissions() {
    let service =
        SolverService::new(ServiceConfig { workers: 2, cache_capacity: 64, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let first = session.submit(quick(700));
    let mut stream = session.completions();
    assert_eq!(stream.next().map(|c| c.id), Some(first.id()));
    assert!(stream.next().is_none(), "all submitted work consumed: the stream ends");

    // New work after exhaustion must NOT revive a finished iterator — the
    // end state is latched, per the Iterator fusion convention.
    let second = session.submit(quick(701));
    assert!(second.wait().is_ok());
    assert!(stream.next().is_none(), "a fused iterator never yields again");
    assert!(stream.next().is_none());

    // A *fresh* iterator sees the later job.
    let ids: Vec<u64> = session.completions().map(|c| c.id).collect();
    assert_eq!(ids, vec![second.id()]);
}

#[test]
fn completion_buffer_bounds_handle_only_sessions() {
    let service =
        SolverService::new(ServiceConfig { workers: 2, cache_capacity: 64, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, completion_buffer: 2 });
    let handles: Vec<JobHandle> = (0..5).map(|i| session.submit(quick(600 + i))).collect();
    session.drain();
    // Handles are unaffected by the bounded stream buffer.
    for handle in &handles {
        assert!(handle.try_result().expect("resolved").is_ok());
    }
    assert_eq!(session.completions_dropped(), 3);
    let retained: Vec<Completion> = session.completions().collect();
    assert_eq!(retained.len(), 2, "only the newest completions are retained");
}

#[test]
fn drain_and_shutdown_resolve_all_in_flight_handles() {
    let service =
        SolverService::new(ServiceConfig { workers: 2, cache_capacity: 64, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 16, ..Default::default() });
    let handles: Vec<JobHandle> = (0..6).map(|i| session.submit(quick(500 + i))).collect();
    assert!(session.in_flight() <= 6);
    session.drain();
    assert_eq!(session.in_flight(), 0);
    for handle in &handles {
        assert!(handle.is_finished(), "drain must resolve every handle");
        assert!(handle.try_result().expect("resolved").is_ok());
    }
    // Nothing was consumed from the stream: shutdown hands the full
    // finish-order backlog back.
    let leftovers = session.shutdown();
    assert_eq!(leftovers.len(), 6);
    assert!(leftovers.iter().all(|c| c.outcome.is_ok()));
}

/// A pick-one problem whose variable order is the label order of `costs`;
/// two instances with permuted costs encode permuted-but-identical QUBOs
/// under the same problem name.
struct Menu {
    costs: Vec<f64>,
}

impl DmProblem for Menu {
    fn name(&self) -> String {
        "menu".into()
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
fn permuted_encoding_is_served_from_cache_with_translated_bits() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    let costs = vec![5.0, 1.0, 3.0, 4.0];
    let reversed: Vec<f64> = costs.iter().rev().copied().collect();
    let first = service
        .run(JobSpec::new(Arc::new(Menu { costs }), 9).on_backend("tabu"))
        .expect("solvable");
    let second = service
        .run(JobSpec::new(Arc::new(Menu { costs: reversed }), 9).on_backend("tabu"))
        .expect("solvable");

    assert!(!first.from_cache);
    assert!(second.from_cache, "permuted-but-identical encoding must hit the cache");
    // The cached canonical assignment, translated into the reversed
    // labeling, is exactly the first result's bits reversed.
    let mut expected = first.report.bits.clone();
    expected.reverse();
    assert_eq!(second.report.bits, expected);
    assert!(second.report.decoded.feasible);
    assert_eq!(second.report.decoded.objective, first.report.decoded.objective);
    assert!((second.report.energy - first.report.energy).abs() < 1e-9);
    assert_eq!(service.report().cache_hits, 1);
}
