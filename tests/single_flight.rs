//! The single-flight (thundering-herd) invariant, asserted via the
//! process-wide compilation counter: two concurrent submissions of the same
//! work identity must produce **one** compilation, **one** cache miss, and
//! **one** solve — the duplicate parks on the leader's in-flight entry and
//! is served its published result bit-identically. Also covered: cancelling
//! one of the coalesced pair never disturbs the other, and
//! permuted-but-identical concurrent encodings coalesce before either
//! compiles, with the follower's bits translated through its own
//! permutation.
//!
//! Everything runs inside a single `#[test]` because the compilation
//! counter is global to the process: this file is its own test binary, and
//! one test body keeps unrelated compilations out of the measured deltas.
//!
//! Determinism of the concurrency: each scenario's problems share a
//! rendezvous in `to_qubo` (both jobs must be picked up before either
//! proceeds) and a release gate in `decode` (the leader cannot finish its
//! solve before the test observed `jobs_coalesced == 1`), so the
//! leader/follower overlap is forced, not timing-dependent. Which of the
//! two handles leads is the one scheduling-dependent bit, and the
//! assertions hold under either assignment.

use qdm::prelude::*;
use qdm::qubo::compiled::compilation_count;
use qdm::qubo::model::QuboModel;
use qdm::qubo::penalty;
use std::sync::{Arc, Condvar, Mutex};

/// Blocks the first `expected` callers until all have arrived; anyone
/// arriving later (e.g. a post-scenario resubmission) passes straight
/// through — unlike `std::sync::Barrier`, which would re-arm and park them.
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

/// A latch the test opens once it has seen the follower park: `decode`
/// blocks on it, so the leader cannot publish before the duplicate
/// coalesced. Stays open forever after `open()`.
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

/// Opens its latch when dropped. Declared after the service, it drops
/// first, so a failed assertion unwinds through the service's teardown
/// instead of hanging on a worker still parked in the latch.
struct OpenOnDrop(Arc<Release>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A pick-one problem instrumented for forced-overlap coalescing tests.
struct CoalesceProbe {
    costs: Vec<f64>,
    rendezvous: Arc<Rendezvous>,
    release: Arc<Release>,
}

impl DmProblem for CoalesceProbe {
    fn name(&self) -> String {
        "coalesce-probe".into()
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

fn wait_for_coalesce(service: &SolverService) {
    while service.report().jobs_coalesced == 0 {
        std::thread::yield_now();
    }
}

#[test]
fn concurrent_duplicates_single_flight_with_one_compile_and_cancel_isolation() {
    // ----- Scenario 1: exact duplicates — one compile, one miss. ---------
    let service =
        SolverService::new(ServiceConfig { workers: 2, cache_capacity: 64, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let rendezvous = Arc::new(Rendezvous::new(2));
    let release = Arc::new(Release::default());
    let _unwedge = OpenOnDrop(Arc::clone(&release));
    let probe: SharedProblem = Arc::new(CoalesceProbe {
        costs: vec![5.0, 1.0, 3.0, 4.0],
        rendezvous: Arc::clone(&rendezvous),
        release: Arc::clone(&release),
    });
    let spec = JobSpec::new(Arc::clone(&probe), 7).on_backend("simulated-annealing");

    let before = compilation_count();
    let first = session.submit(spec.clone());
    let second = session.submit(spec.clone());
    // Both workers are inside the job (the rendezvous saw two arrivals);
    // exactly one leads, and the gate keeps it from finishing before the
    // other has parked on its flight.
    wait_for_coalesce(&service);
    release.open();

    let a = first.wait().expect("leader or follower, the result is the same");
    let b = second.wait().expect("solvable");
    assert_eq!(
        compilation_count() - before,
        1,
        "two concurrent identical specs must compile exactly once"
    );
    assert_eq!(a.report.bits, b.report.bits, "coalesced results are bit-identical");
    assert_eq!(a.report.energy.to_bits(), b.report.energy.to_bits());
    assert_eq!(a.backend, b.backend);
    assert!(a.report.decoded.feasible);
    assert_ne!(a.coalesced, b.coalesced, "exactly one of the pair coalesced onto the other");
    assert!(!a.from_cache && !b.from_cache, "neither result came from the cache");
    let report = service.report();
    assert_eq!(report.cache_misses, 1, "one miss: the duplicate never consulted the cache");
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.jobs_coalesced, 1);
    assert_eq!(report.jobs_completed, 2, "both handles resolved successfully");

    // The flight's result was also cached: a later identical submission is
    // a plain cache hit, and compiles nothing.
    let before = compilation_count();
    let again = session.submit(spec.clone()).wait().expect("cached");
    assert!(again.from_cache && !again.coalesced);
    assert_eq!(again.report.bits, a.report.bits);
    assert_eq!(compilation_count() - before, 0, "a cache hit must not compile");

    // ----- Scenario 2: cancelling one of the pair never disturbs the -----
    // other (in particular, a cancelled follower never cancels its leader).
    let service =
        SolverService::new(ServiceConfig { workers: 2, cache_capacity: 64, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let rendezvous = Arc::new(Rendezvous::new(2));
    let release = Arc::new(Release::default());
    let _unwedge = OpenOnDrop(Arc::clone(&release));
    let probe: SharedProblem = Arc::new(CoalesceProbe {
        costs: vec![5.0, 1.0, 3.0, 4.0],
        rendezvous: Arc::clone(&rendezvous),
        release: Arc::clone(&release),
    });
    let spec = JobSpec::new(Arc::clone(&probe), 8).on_backend("simulated-annealing");
    let kept = session.submit(spec.clone());
    let cancelled = session.submit(spec.clone());
    wait_for_coalesce(&service);
    assert_eq!(cancelled.cancel(), CancelStatus::Running, "both jobs are already running");
    release.open();

    assert!(matches!(cancelled.wait(), Err(JobError::Cancelled)));
    let kept_result = kept.wait().expect("the uncancelled half of the pair must succeed");
    assert!(kept_result.report.decoded.feasible);
    let report = service.report();
    assert_eq!(report.jobs_cancelled, 1);
    assert_eq!(report.jobs_completed, 1, "the cancelled job counts cancelled, not completed");
    assert_eq!(report.cache_misses, 1, "the single shared solve still happened exactly once");
    assert_eq!(report.jobs_coalesced, 1);

    // ----- Scenario 3: permuted-but-identical concurrent encodings -------
    // coalesce on the canonical key; the follower's bits are translated
    // through its *own* permutation (the cache-hit machinery).
    let service =
        SolverService::new(ServiceConfig { workers: 2, cache_capacity: 64, ..Default::default() });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let rendezvous = Arc::new(Rendezvous::new(2));
    let release = Arc::new(Release::default());
    let _unwedge = OpenOnDrop(Arc::clone(&release));
    let costs = vec![5.0, 1.0, 3.0, 4.0];
    let reversed: Vec<f64> = costs.iter().rev().copied().collect();
    let forward: SharedProblem = Arc::new(CoalesceProbe {
        costs,
        rendezvous: Arc::clone(&rendezvous),
        release: Arc::clone(&release),
    });
    let backward: SharedProblem = Arc::new(CoalesceProbe {
        costs: reversed,
        rendezvous: Arc::clone(&rendezvous),
        release: Arc::clone(&release),
    });

    let before = compilation_count();
    let fwd = session.submit(JobSpec::new(forward, 9).on_backend("tabu"));
    let bwd = session.submit(JobSpec::new(backward, 9).on_backend("tabu"));
    wait_for_coalesce(&service);
    release.open();

    let f = fwd.wait().expect("solvable");
    let b = bwd.wait().expect("solvable");
    // The canonical fingerprint comes from the uncompiled model, so the
    // follower parks before compiling: only the leader compiles and solves.
    assert_eq!(compilation_count() - before, 1, "permuted duplicates compile once in total");
    let mut mirrored = f.report.bits.clone();
    mirrored.reverse();
    assert_eq!(
        b.report.bits, mirrored,
        "the follower's assignment is the leader's, translated through its own permutation"
    );
    assert!((f.report.energy - b.report.energy).abs() < 1e-9);
    assert!(f.report.decoded.feasible && b.report.decoded.feasible);
    assert_eq!(f.report.decoded.objective, b.report.decoded.objective);
    assert_ne!(f.coalesced, b.coalesced, "exactly one coalesced onto the other's flight");
    let report = service.report();
    assert_eq!(report.cache_misses, 1, "one solve served both labelings");
    assert_eq!(report.jobs_coalesced, 1);
    assert_eq!(report.jobs_completed, 2);
}
