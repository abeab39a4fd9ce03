//! Integration regression tests for the fair scheduler
//! (`qdm_runtime::scheduler`): priority aging must bound how long sustained
//! High-priority traffic can delay a Low job, and per-session
//! deficit-round-robin must stop one deep session from monopolizing the
//! worker pool. Both schedules are deterministic (the aging clock is pops,
//! not wall time), so the tests assert exact completion orders, observed
//! through each problem's `decode` call on a single-worker service.

use qdm::prelude::*;
use std::sync::{Arc, Condvar, Mutex};

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

/// Parks the single worker inside `to_qubo` so the test can queue a full
/// backlog behind it before any scheduling decision is made.
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

/// A pick-one problem that records its tag into a shared log when decoded —
/// i.e. in the order the single worker actually served the jobs.
struct Tagged {
    tag: &'static str,
    n: usize,
    log: Arc<Mutex<Vec<&'static str>>>,
}

impl DmProblem for Tagged {
    fn name(&self) -> String {
        "tagged-pick".into()
    }
    fn n_vars(&self) -> usize {
        self.n
    }
    fn to_qubo(&self) -> QuboModel {
        let mut q = QuboModel::new(self.n);
        for i in 0..self.n {
            q.add_linear(i, ((i * 7) % 5) as f64 + 1.0);
        }
        let vars: Vec<usize> = (0..self.n).collect();
        penalty::exactly_one(&mut q, &vars, 50.0);
        q
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        self.log.lock().unwrap().push(self.tag);
        let chosen = bits.iter().filter(|&&b| b).count();
        Decoded { feasible: chosen == 1, objective: 0.0, summary: format!("{bits:?}") }
    }
}

fn tagged(
    tag: &'static str,
    n: usize,
    log: &Arc<Mutex<Vec<&'static str>>>,
    seed: u64,
    priority: JobPriority,
) -> JobSpec {
    let problem: SharedProblem = Arc::new(Tagged { tag, n, log: Arc::clone(log) });
    // Distinct seeds keep every job a distinct work identity: no cache hits
    // and no single-flight coalescing can hide the scheduling order.
    JobSpec::new(problem, seed).with_priority(priority)
}

#[test]
fn low_priority_job_completes_within_the_aging_bound_under_sustained_high_traffic() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 256, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 64, ..Default::default() });
    let gate = Arc::new(Gate::default());
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

    // Park the only worker, then queue a sustained High backlog with one
    // Low job drowning in it.
    let blocker = session.submit(JobSpec::new(Arc::new(Blocker { gate: Arc::clone(&gate) }), 1));
    gate.wait_started();
    for seed in 0..40 {
        session.submit(tagged("high", 4, &log, 100 + seed, JobPriority::High));
    }
    session.submit(tagged("low", 4, &log, 999, JobPriority::Low));
    gate.open();
    session.drain();
    assert!(blocker.wait().is_ok());

    // The concrete starvation bound: exactly AGE_AFTER_POPS High pops may
    // bypass the waiting Low lane, then its job is served — under the old
    // strict-priority drain it would have been dead last (position 40).
    let order = log.lock().unwrap().clone();
    assert_eq!(order.len(), 41);
    assert_eq!(order[AGE_AFTER_POPS as usize], "low", "order: {order:?}");
    assert!(order[..AGE_AFTER_POPS as usize].iter().all(|&t| t == "high"));
    assert!(order[AGE_AFTER_POPS as usize + 1..].iter().all(|&t| t == "high"));
}

#[test]
fn a_deep_session_cannot_monopolize_the_pool_against_a_light_one() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 256, ..Default::default() });
    let deep = service.session(SessionConfig { queue_capacity: 32, ..Default::default() });
    let light = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let gate = Arc::new(Gate::default());
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

    // The deep session queues ten 6-var jobs before the light session
    // submits its two; all in the same (Normal) lane. The worker is parked
    // inside the blocker's `to_qubo`, so every submission is costed by the
    // *cold* calibration model: the cheapest eligible backend for 6
    // variables is the exact enumerator (dispatch overhead + 2^6 states),
    // 5.48 µs — a deterministic DRR cost of 5 per job.
    let blocker = deep.submit(JobSpec::new(Arc::new(Blocker { gate: Arc::clone(&gate) }), 1));
    gate.wait_started();
    for seed in 0..10 {
        deep.submit(tagged("deep", 6, &log, 200 + seed, JobPriority::Normal));
    }
    for seed in 0..2 {
        light.submit(tagged("light", 6, &log, 300 + seed, JobPriority::Normal));
    }
    gate.open();
    deep.drain();
    light.drain();
    assert!(blocker.wait().is_ok());

    // Deficit round robin with DRR_QUANTUM = 16 credit and 5-cost
    // (predicted-microsecond) jobs: the deep session serves three jobs per
    // turn, then the light session drains completely — it is finished by
    // the fifth completion instead of waiting out the entire ten-deep
    // backlog.
    let order = log.lock().unwrap().clone();
    let expected: Vec<&str> = ["deep", "deep", "deep", "light", "light"]
        .into_iter()
        .chain(std::iter::repeat_n("deep", 7))
        .collect();
    assert_eq!(order, expected, "DRR must interleave the sessions deterministically");
}

#[test]
fn mixed_priority_two_session_backlog_drains_in_a_pinned_fair_order() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 256, ..Default::default() });
    let deep = service.session(SessionConfig { queue_capacity: 32, ..Default::default() });
    let light = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let gate = Arc::new(Gate::default());
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

    let blocker = deep.submit(JobSpec::new(Arc::new(Blocker { gate: Arc::clone(&gate) }), 1));
    gate.wait_started();
    for seed in 0..4 {
        deep.submit(tagged("deep", 6, &log, 400 + seed, JobPriority::Normal));
    }
    light.submit(tagged("light", 6, &log, 500, JobPriority::Normal));
    light.submit(tagged("urgent", 6, &log, 501, JobPriority::High));
    gate.open();
    deep.drain();
    light.drain();
    assert!(blocker.wait().is_ok());

    // The High lane goes first. In the Normal lane the 5-cost jobs meet
    // DRR_QUANTUM = 16 credit: the deep session serves three, the light
    // session's one job runs, then the deep session's last — a strict
    // FIFO lane would have kept "light" waiting behind all four.
    let order = log.lock().unwrap().clone();
    assert_eq!(order, vec!["urgent", "deep", "deep", "deep", "light", "deep"]);
}
