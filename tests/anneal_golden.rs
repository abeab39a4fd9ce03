//! Golden annealing trajectories on the four Table I families.
//!
//! Each row pins, for one seeded model: the model's fingerprint (so an
//! encoder that adds its terms in another order shows up here first), then
//! the energy bits, evaluation count and an FNV-1a hash of the returned
//! assignment of serial, restart-parallel and colored simulated annealing,
//! and in a second table of simulated quantum annealing (which shares the
//! Metropolis test) and tabu search (which shares the energy and local-field
//! initialisers). The SA values were recorded before the Metropolis test
//! learned to skip `exp()` on clear rejections, and the SQA and tabu values
//! before it moved to a lookup table; a kernel change that moves any
//! decision, RNG draw or floating-point sum moves one of them.

use qdm::anneal::sa::{
    simulated_annealing, simulated_annealing_colored, simulated_annealing_parallel, SaParams,
};
use qdm::anneal::sqa::{simulated_quantum_annealing, SqaParams};
use qdm::anneal::tabu::{tabu_search, TabuParams};
use qdm::core::problem::DmProblem;
use qdm::db::query::{GraphShape, QueryGraph};
use qdm::db::txn::random_workload;
use qdm::problems::joinorder::JoinOrderProblem;
use qdm::problems::mqo::{MqoInstance, MqoProblem};
use qdm::problems::schema::{generate_benchmark, SchemaMatchingProblem};
use qdm::problems::txn_schedule::TxnScheduleProblem;
use qdm::qubo::model::QuboModel;
use qdm::qubo::solve::SolveResult;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One seeded model per family, at 64–130 variables.
fn models() -> Vec<(&'static str, QuboModel)> {
    let mut rng = StdRng::seed_from_u64(2027);
    let mqo = MqoProblem::new(MqoInstance::generate(24, 4, 0.08, &mut rng)).to_qubo();
    let join =
        JoinOrderProblem::left_deep(QueryGraph::generate(GraphShape::Star, 8, &mut rng)).to_qubo();
    let txn = TxnScheduleProblem::new(random_workload(12, 36, 2, 0.4, &mut rng), 8).to_qubo();
    let (schema, _) = generate_benchmark(10, 3, &mut rng);
    let schema = SchemaMatchingProblem::new(schema).to_qubo();
    vec![("mqo", mqo), ("join-order", join), ("txn-schedule", txn), ("schema-match", schema)]
}

/// FNV-1a over the assignment, one byte per bit.
fn bits_hash(bits: &[bool]) -> u64 {
    bits.iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn row(r: &SolveResult) -> (u64, u64, u64) {
    (r.energy.to_bits(), r.evaluations, bits_hash(&r.bits))
}

type Golden = (&'static str, usize, u64, [(u64, u64, u64); 3]);

#[test]
fn annealing_trajectories_are_pinned() {
    let got: Vec<Golden> = models()
        .into_iter()
        .enumerate()
        .map(|(k, (name, q))| {
            let params = SaParams::scaled_to(&q);
            let seed = 90 + k as u64;
            let serial = simulated_annealing(&q, &params, &mut StdRng::seed_from_u64(seed));
            let parallel = simulated_annealing_parallel(&q, &params, seed, 1);
            let colored = simulated_annealing_colored(&q.compile(), &params, seed, 1);
            (name, q.n_vars(), q.fingerprint(), [row(&serial), row(&parallel), row(&colored)])
        })
        .collect();
    let want: [Golden; 4] = [
        (
            "mqo",
            96,
            0x5a0b_8c7f_d172_e3be,
            [
                (0x408a_9a3b_75f8_f0d8, 76805, 0x7390_7f6d_9161_0605),
                (0x408b_e43a_7cae_deb0, 76805, 0xd70c_e79c_8b5d_19e5),
                (0x408b_c5cf_01e3_c148, 76805, 0x566d_83cd_2a28_ac7d),
            ],
        ),
        (
            "join-order",
            64,
            0x1867_8030_7032_f8b9,
            [
                (0x4056_1f16_032f_f694, 51205, 0x09a2_a513_00ad_0b35),
                (0x4054_cb3f_4aea_347c, 51205, 0xc3db_ea95_af4c_97c5),
                (0x4055_a888_c66b_7440, 51205, 0xf67f_a976_050b_4759),
            ],
        ),
        (
            "txn-schedule",
            96,
            0x43c2_1513_de52_b27a,
            [
                (0x4040_e000_0000_0000, 76805, 0x54b0_aae0_1357_ce61),
                (0x4043_4000_0000_0000, 76805, 0x749e_9eea_ab16_7619),
                (0x403c_4000_0000_0000, 76805, 0x3506_a03a_e8d3_5d91),
            ],
        ),
        (
            "schema-match",
            130,
            0xc94a_6c2e_0037_d7b1,
            [
                (0xc01b_d2fe_472a_45e8, 104005, 0x4ad2_5bb3_7501_c4b5),
                (0xc01b_d2fe_472a_4520, 104005, 0x4ad2_5bb3_7501_c4b5),
                (0xc01b_d2fe_472a_4600, 104005, 0x4ad2_5bb3_7501_c4b5),
            ],
        ),
    ];
    assert_eq!(got, want);
}

type GoldenPair = (&'static str, [(u64, u64, u64); 2]);

#[test]
fn sqa_and_tabu_trajectories_are_pinned() {
    let got: Vec<GoldenPair> = models()
        .into_iter()
        .enumerate()
        .map(|(k, (name, q))| {
            let seed = 190 + k as u64;
            let sqa_params = SqaParams { replicas: 8, sweeps: 100, ..SqaParams::scaled_to(&q) };
            let sqa =
                simulated_quantum_annealing(&q, &sqa_params, &mut StdRng::seed_from_u64(seed));
            let tabu = tabu_search(&q, &TabuParams::default(), &mut StdRng::seed_from_u64(seed));
            (name, [row(&sqa), row(&tabu)])
        })
        .collect();
    let want: [GoldenPair; 4] = [
        (
            "mqo",
            [
                (0x4090_daa6_00e9_3a40, 77608, 0xd226_6956_b6c8_4965),
                (0x4080_1596_590d_4738, 4003, 0x52ab_d08a_12bb_3e73),
            ],
        ),
        (
            "join-order",
            [
                (0x4054_cfe8_3550_f240, 52008, 0x208c_9195_0648_eef5),
                (0x4054_ef9c_4ab9_c020, 4003, 0xcce3_4eed_fbda_36d5),
            ],
        ),
        (
            "txn-schedule",
            [
                (0x4045_b000_0000_0000, 77608, 0xfbbf_aaba_ee81_57b3),
                (0x402d_4000_0000_0000, 4003, 0x6c22_8708_677e_fd27),
            ],
        ),
        (
            "schema-match",
            [
                (0xc01b_d2fe_472a_4280, 104808, 0x4ad2_5bb3_7501_c4b5),
                (0xc01b_d2fe_472a_4450, 4003, 0x4ad2_5bb3_7501_c4b5),
            ],
        ),
    ];
    assert_eq!(got, want);
}
