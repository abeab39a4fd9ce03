//! Canonical-form contracts on the four Table I families at 16–256
//! variables: the streamed canonical fingerprint is the plain fingerprint
//! of the relabeled model, the model and compiled paths agree, and any two
//! labelings that share a canonical fingerprint translate assignments into
//! each other without changing energy — the contract a permuted cache hit
//! relies on.

use qdm_core::problem::DmProblem;
use qdm_db::query::{GraphShape, QueryGraph};
use qdm_db::txn::random_workload;
use qdm_problems::joinorder::JoinOrderProblem;
use qdm_problems::mqo::{MqoInstance, MqoProblem};
use qdm_problems::schema::{generate_benchmark, SchemaMatchingProblem};
use qdm_problems::txn_schedule::TxnScheduleProblem;
use qdm_qubo::model::QuboModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 4] = [16, 48, 128, 256];
const FAMILIES: [&str; 4] = ["mqo", "join-order", "txn-schedule", "schema-match"];

/// A `family` instance of about `target` variables.
fn build(family: &str, target: usize, rng: &mut StdRng) -> QuboModel {
    let side = (target as f64).sqrt().ceil() as usize;
    match family {
        "mqo" => {
            let queries = target.div_ceil(4).max(2);
            let sharing = (8.0 / (queries * 4) as f64).min(0.3);
            MqoProblem::new(MqoInstance::generate(queries, 4, sharing, rng)).to_qubo()
        }
        "join-order" => {
            let graph = QueryGraph::generate(GraphShape::Chain, side.clamp(3, 16), rng);
            JoinOrderProblem::bushy(graph).to_qubo()
        }
        "txn-schedule" => {
            let horizon = side.clamp(3, 16);
            let txns = target.div_ceil(horizon).max(2);
            TxnScheduleProblem::new(random_workload(txns, 3 * txns, 2, 0.4, rng), horizon).to_qubo()
        }
        _ => {
            let attributes = side.clamp(2, 12);
            let noise = (target / attributes).saturating_sub(attributes);
            SchemaMatchingProblem::new(generate_benchmark(attributes, noise, rng).0).to_qubo()
        }
    }
}

/// `q` with variable `i` renamed to `to[i]`.
fn relabel(q: &QuboModel, to: &[usize]) -> QuboModel {
    let mut out = QuboModel::new(q.n_vars());
    for (i, &t) in to.iter().enumerate() {
        out.add_linear(t, q.linear(i));
    }
    for ((i, j), w) in q.quadratic_iter() {
        out.add_quadratic(to[i], to[j], w);
    }
    out.add_offset(q.offset());
    out
}

fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut to: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        to.swap(i, rng.random_range(0..=i));
    }
    to
}

/// Every (family, size) instance, seeded.
fn instances() -> Vec<(String, QuboModel)> {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut out = Vec::new();
    for family in FAMILIES {
        for target in SIZES {
            let q = build(family, target, &mut rng);
            out.push((format!("{family} at {} vars", q.n_vars()), q));
        }
    }
    out
}

#[test]
fn streamed_fingerprint_is_the_relabeled_models_fingerprint() {
    for (label, q) in instances() {
        let (fp, perm) = q.canonical_form();
        assert_eq!(fp, relabel(&q, &perm).fingerprint(), "{label}");
    }
}

#[test]
fn model_and_compiled_canonical_forms_agree() {
    for (label, q) in instances() {
        assert_eq!(q.canonical_form(), q.compile().canonical_form(), "{label}");
    }
}

#[test]
fn agreeing_fingerprints_translate_bits_without_changing_energy() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut agreed = 0;
    for (label, q) in instances() {
        let n = q.n_vars();
        let a = relabel(&q, &shuffled(n, &mut rng));
        let b = relabel(&q, &shuffled(n, &mut rng));
        let (fp_a, perm_a) = a.canonical_form();
        let (fp_b, perm_b) = b.canonical_form();
        if fp_a != fp_b {
            continue;
        }
        agreed += 1;
        // A shared fingerprint means one canonical model...
        assert_eq!(relabel(&a, &perm_a), relabel(&b, &perm_b), "{label}");
        // ...so the cache-hit translation, through canonical order, keeps
        // every assignment's energy.
        for _ in 0..8 {
            let bits_a: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
            let mut canonical = vec![false; n];
            for (i, &bit) in bits_a.iter().enumerate() {
                canonical[perm_a[i]] = bit;
            }
            let bits_b: Vec<bool> = perm_b.iter().map(|&c| canonical[c]).collect();
            let (ea, eb) = (a.energy(&bits_a), b.energy(&bits_b));
            assert!((ea - eb).abs() <= 1e-9 * ea.abs().max(1.0), "{label}: {ea} vs {eb}");
        }
    }
    assert!(agreed >= SIZES.len(), "every MQO pair agrees, so the check is never vacuous");
}

#[test]
fn mqo_relabelings_always_share_the_canonical_fingerprint() {
    let mut rng = StdRng::seed_from_u64(11);
    for target in SIZES {
        let q = build("mqo", target, &mut rng);
        let fp = q.canonical_fingerprint();
        for round in 0..5 {
            let relabeled = relabel(&q, &shuffled(q.n_vars(), &mut rng));
            assert_eq!(relabeled.canonical_fingerprint(), fp, "{target} vars, round {round}");
        }
    }
}
