//! Route once, on a journaled direct service: every job encodes its problem
//! exactly once — the submitter builds the job's route to journal the
//! model, and the worker runs from that same route — and a cache hit,
//! whether an exact or a permuted resubmission, compiles nothing.
//!
//! Encodes are counted by a `to_qubo` counter on the problem, compiles by
//! the process-wide compilation counter
//! (`qdm_qubo::compiled::compilation_count`). Everything runs inside a
//! single `#[test]` because that counter is global to the process: this
//! file is its own test binary, and one test body keeps unrelated
//! compilations out of the measured deltas.

use qdm::prelude::*;
use qdm::problems::mqo::{MqoInstance, MqoProblem};
use qdm::qubo::compiled::compilation_count;
use qdm::qubo::model::QuboModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A Table I problem under a relabeling of its variables, counting its
/// `to_qubo` calls. `to[i]` is inner variable `i`'s index in this
/// labeling; the identity relabeling is the problem itself.
struct Counted {
    inner: Arc<MqoProblem>,
    to: Vec<usize>,
    encodes: AtomicUsize,
}

impl Counted {
    fn new(inner: &Arc<MqoProblem>, to: Vec<usize>) -> Arc<Self> {
        Arc::new(Self { inner: Arc::clone(inner), to, encodes: AtomicUsize::new(0) })
    }

    fn encodes(&self) -> usize {
        self.encodes.load(Ordering::SeqCst)
    }
}

impl DmProblem for Counted {
    /// The inner name: a relabeling is the same problem, and the result
    /// cache keys on the name.
    fn name(&self) -> String {
        self.inner.name()
    }
    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }
    fn to_qubo(&self) -> QuboModel {
        self.encodes.fetch_add(1, Ordering::SeqCst);
        let inner = self.inner.to_qubo();
        let mut model = QuboModel::new(inner.n_vars());
        model.add_offset(inner.offset());
        for (i, &t) in self.to.iter().enumerate() {
            model.add_linear(t, inner.linear(i));
        }
        for ((i, j), w) in inner.quadratic_iter() {
            model.add_quadratic(self.to[i], self.to[j], w);
        }
        model
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        let inner_bits: Vec<bool> = self.to.iter().map(|&t| bits[t]).collect();
        self.inner.decode(&inner_bits)
    }
}

#[test]
fn journaled_direct_jobs_encode_once_and_cache_hits_never_compile() {
    let journal = Arc::new(MemoryJournal::new());
    let service = SolverService::new(ServiceConfig {
        workers: 2,
        cache_capacity: 64,
        journal: Some(Arc::clone(&journal) as Arc<dyn Journal>),
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(17);
    let mqo = Arc::new(MqoProblem::new(MqoInstance::generate(4, 4, 0.3, &mut rng)));
    let n = mqo.n_vars();
    let run = |problem: &Arc<Counted>| {
        let spec = JobSpec::new(Arc::clone(problem) as SharedProblem, 5).on_backend("tabu");
        let before = compilation_count();
        let result = service.run(spec).expect("solvable");
        (result, compilation_count() - before)
    };

    let original = Counted::new(&mqo, (0..n).collect());
    let (first, _) = run(&original);
    assert!(!first.from_cache);
    assert_eq!(original.encodes(), 1, "a journaled direct job must encode exactly once");

    let exact = Counted::new(&mqo, (0..n).collect());
    let (again, compiles) = run(&exact);
    assert!(again.from_cache, "an exact resubmission is a cache hit");
    assert_eq!(exact.encodes(), 1, "a cache hit encodes exactly once");
    assert_eq!(compiles, 0, "an exact cache hit must not compile");
    assert_eq!(again.report.bits, first.report.bits);
    assert_eq!(again.report.energy.to_bits(), first.report.energy.to_bits());
    assert_eq!(again.report.decoded, first.report.decoded);
    assert_eq!(again.backend, first.backend);

    let reversed = Counted::new(&mqo, (0..n).rev().collect());
    let (permuted, compiles) = run(&reversed);
    assert!(permuted.from_cache, "a permuted resubmission is a cache hit");
    assert_eq!(reversed.encodes(), 1, "a permuted cache hit encodes exactly once");
    assert_eq!(compiles, 0, "a permuted cache hit must not compile");
    let mut mirrored = first.report.bits.clone();
    mirrored.reverse();
    assert_eq!(permuted.report.bits, mirrored, "translated through its own permutation");
    assert!((permuted.report.energy - first.report.energy).abs() < 1e-9);
    assert_eq!(permuted.report.decoded.objective, first.report.decoded.objective);

    let submitted =
        journal.events().iter().filter(|e| matches!(e, JournalEvent::Submitted(_))).count();
    assert_eq!(submitted, 3, "every job is journaled");
    let report = service.report();
    assert_eq!((report.cache_hits, report.cache_misses), (2, 1));
}
