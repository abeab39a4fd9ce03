//! The size of the model codec on the jobs it journals.
//!
//! Every journaled job's `Submitted` record carries its model as
//! `QuboModel::to_bytes`, so that codec sets the write-ahead log's size.

use qdm::core::problem::DmProblem;
use qdm::db::query::{GraphShape, QueryGraph};
use qdm::db::txn::random_workload;
use qdm::problems::joinorder::JoinOrderProblem;
use qdm::problems::mqo::{MqoInstance, MqoProblem};
use qdm::problems::schema::{generate_benchmark, SchemaMatchingProblem};
use qdm::problems::txn_schedule::TxnScheduleProblem;
use qdm::qubo::model::QuboModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded Table I models of 8–64 variables, the four families in turn.
fn table_one_models() -> Vec<QuboModel> {
    let mut rng = StdRng::seed_from_u64(64);
    (0..64)
        .map(|k| {
            let target: usize = rng.random_range(8..=64);
            let side = (target as f64).sqrt().ceil() as usize;
            let problem: Box<dyn DmProblem> = match k % 4 {
                0 => {
                    let queries = target.div_ceil(4).max(2);
                    let sharing = (8.0 / (queries * 4) as f64).min(0.3);
                    Box::new(MqoProblem::new(MqoInstance::generate(queries, 4, sharing, &mut rng)))
                }
                1 => Box::new(JoinOrderProblem::left_deep(QueryGraph::generate(
                    GraphShape::Chain,
                    side.clamp(3, 8),
                    &mut rng,
                ))),
                2 => {
                    let horizon = side.clamp(3, 8);
                    let txns = target.div_ceil(horizon).max(2);
                    let workload = random_workload(txns, 3 * txns, 2, 0.4, &mut rng);
                    Box::new(TxnScheduleProblem::new(workload, horizon))
                }
                _ => {
                    let attributes = side.clamp(2, 8);
                    let noise = (target / attributes).saturating_sub(attributes);
                    Box::new(SchemaMatchingProblem::new(
                        generate_benchmark(attributes, noise, &mut rng).0,
                    ))
                }
            };
            problem.to_qubo()
        })
        .collect()
}

/// The length version 1 of the codec gave a model: version byte, `n_vars`,
/// the linear terms, the coupling count, 24 bytes per coupling (`i` and `j`
/// as `u64`s, the weight) and the offset.
fn version_1_len(q: &QuboModel) -> usize {
    1 + 8 + 8 * q.n_vars() + 8 + 24 * q.n_interactions() + 8
}

#[test]
fn table_one_models_encode_at_least_twice_smaller_than_codec_version_1() {
    let models = table_one_models();
    assert!(models.iter().all(|q| (8..=64).contains(&q.n_vars())));
    let (mut old, mut new) = (0, 0);
    for q in &models {
        let bytes = q.to_bytes();
        assert_eq!(QuboModel::from_bytes(&bytes).as_ref(), Some(q));
        old += version_1_len(q);
        new += bytes.len();
    }
    assert!(2 * new <= old, "{new} bytes against {old} with codec version 1");
}
