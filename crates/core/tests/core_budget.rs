//! The process-wide core budget (`qdm_core::cores`) and the parallel
//! annealer that consumes it.
//!
//! The budget is one count per process and the tests of one binary run
//! concurrently, so these tests live in a binary of their own and take
//! [`LEDGER`] to run one at a time.
//!
//! - `SaParallelSolver` output is pinned to golden values recorded before
//!   the budget existed, in every occupancy state: the thread count may
//!   follow load, the result may not.
//! - The fan-out follows idle cores: none when every core is held, at
//!   least two threads on an idle multi-core machine.
//! - Guards release on unwind: a probe panic mid-solve leaves no core
//!   reserved.

use qdm_core::cores;
use qdm_core::solver::{QuboSolver, SaParallelSolver};
use qdm_qubo::model::QuboModel;
use qdm_qubo::probe::{RestartStats, StageProbe};
use qdm_qubo::solve::SolveResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ThreadId};

/// Serializes the tests of this binary over the process-wide ledger.
static LEDGER: Mutex<()> = Mutex::new(());

fn ledger() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock left no core reserved
    // (that is what the unwind test checks), so the poison is harmless.
    LEDGER.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fixed 128-variable QUBO from a seeded RNG.
fn model() -> QuboModel {
    let mut rng = StdRng::seed_from_u64(0x00C0_FFEE);
    let n = 128;
    let mut q = QuboModel::new(n);
    for i in 0..n {
        q.add_linear(i, rng.random_range(-3.0..3.0));
        for j in (i + 1)..n {
            if rng.random::<f64>() < 0.08 {
                q.add_quadratic(i, j, rng.random_range(-2.0..2.0));
            }
        }
    }
    q
}

/// FNV-1a over the assignment, one byte per bit.
fn bits_hash(bits: &[bool]) -> u64 {
    bits.iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

fn solve(solver: SaParallelSolver, probe: Option<&dyn StageProbe>) -> SolveResult {
    let c = model().compile();
    let mut rng = StdRng::seed_from_u64(19);
    match probe {
        Some(probe) => solver.solve_observed(&c, &mut rng, probe),
        None => solver.solve_compiled(&c, &mut rng),
    }
}

/// Recorded with `SaParallelSolver::default()` before the core budget
/// existed, when it always ran one thread per hardware thread.
const GOLDEN_ENERGY_BITS: u64 = 0xc065_6511_6e5b_129c;
const GOLDEN_EVALUATIONS: u64 = 102_405;
const GOLDEN_BITS_HASH: u64 = 0xf2f0_1a4e_66fe_1442;

fn assert_golden(result: &SolveResult, state: &str) {
    assert_eq!(result.energy.to_bits(), GOLDEN_ENERGY_BITS, "{state}: energy");
    assert_eq!(result.evaluations, GOLDEN_EVALUATIONS, "{state}: evaluations");
    assert_eq!(bits_hash(&result.bits), GOLDEN_BITS_HASH, "{state}: bits");
}

#[test]
fn parallel_sa_output_is_golden_in_every_occupancy_state() {
    let _ledger = ledger();
    assert_golden(&solve(SaParallelSolver::default(), None), "idle");
    {
        let _all = cores::grant(usize::MAX);
        assert_golden(&solve(SaParallelSolver::default(), None), "every core held");
    }
    for threads in [1, 4] {
        let solver = SaParallelSolver { threads: Some(threads), ..Default::default() };
        assert_golden(&solve(solver, None), &format!("threads: Some({threads})"));
    }
}

#[test]
fn occupancy_counts_once_per_thread_and_grants_only_idle_cores() {
    let _ledger = ledger();
    let hw = cores::hardware_threads();
    assert_eq!(cores::busy(), 0);
    {
        let _outer = cores::occupy();
        let _inner = cores::occupy();
        assert_eq!(cores::busy(), 1, "nested holders on one thread count once");
        let grant = cores::grant(usize::MAX);
        assert_eq!(grant.extra(), hw - 1);
        assert_eq!(cores::grant(1).extra(), 0, "nothing is left idle");
        thread::scope(|scope| {
            scope.spawn(|| {
                let _entered = grant.enter();
                let _nested = cores::occupy();
                assert_eq!(cores::busy(), hw, "a granted thread is not counted twice");
            });
        });
    }
    assert_eq!(cores::busy(), 0, "every guard released its core");
}

/// Records the thread each restart ran on; optionally panics in one.
struct ThreadProbe {
    threads: Mutex<Vec<ThreadId>>,
    panic_on_restart: Option<u64>,
}

impl ThreadProbe {
    fn new(panic_on_restart: Option<u64>) -> Self {
        Self { threads: Mutex::new(Vec::new()), panic_on_restart }
    }

    fn distinct(&self) -> HashSet<ThreadId> {
        self.threads.lock().unwrap().iter().copied().collect()
    }
}

impl StageProbe for ThreadProbe {
    fn on_restart(&self, stats: &RestartStats) {
        self.threads.lock().unwrap().push(thread::current().id());
        if self.panic_on_restart == Some(stats.restart) {
            panic!("probe panics in restart {}", stats.restart);
        }
    }
}

#[test]
fn fan_out_follows_idle_cores() {
    let _ledger = ledger();
    {
        let _all = cores::grant(usize::MAX);
        let probe = ThreadProbe::new(None);
        solve(SaParallelSolver::default(), Some(&probe));
        assert_eq!(probe.threads.lock().unwrap().len(), 4, "every restart reported");
        assert_eq!(
            probe.distinct(),
            HashSet::from([thread::current().id()]),
            "with every core held, all restarts run on the calling thread"
        );
    }
    if cores::hardware_threads() < 2 {
        eprintln!("1 hardware thread: skipping the idle-core fan-out check");
        return;
    }
    let probe = ThreadProbe::new(None);
    solve(SaParallelSolver::default(), Some(&probe));
    assert!(probe.distinct().len() >= 2, "idle cores get restart chunks");
}

#[test]
fn guards_release_their_cores_on_unwind() {
    let _ledger = ledger();
    let panicking = ThreadProbe::new(Some(3));
    let unwound = std::panic::catch_unwind(|| solve(SaParallelSolver::default(), Some(&panicking)));
    assert!(unwound.is_err(), "the probe's panic propagates out of the solve");
    assert_eq!(cores::busy(), 0, "the unwound solve released every core");
    if cores::hardware_threads() < 2 {
        eprintln!("1 hardware thread: skipping the fan-out-after-unwind check");
        return;
    }
    let probe = ThreadProbe::new(None);
    assert_golden(&solve(SaParallelSolver::default(), Some(&probe)), "idle after unwind");
    assert!(probe.distinct().len() >= 2, "a later idle solve still fans out");
}
