//! Property tests: the compiled CSR form is observationally identical to
//! the model it was built from — same energies, same flip
//! deltas, same local fields — on randomly generated models, assignments,
//! and densities (including edge cases like coupling-free models).

use proptest::prelude::*;
use qdm_qubo::model::{bits_from_index, QuboModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random model over `n` variables with the given coupling density.
fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = QuboModel::new(n);
    for i in 0..n {
        if rng.random::<f64>() < 0.8 {
            q.add_linear(i, rng.random_range(-3.0..3.0));
        }
        for j in (i + 1)..n {
            if rng.random::<f64>() < density {
                q.add_quadratic(i, j, rng.random_range(-2.0..2.0));
            }
        }
    }
    q.add_offset(rng.random_range(-1.0..1.0));
    q
}

fn random_bits(n: usize, rng: &mut StdRng) -> Vec<bool> {
    (0..n).map(|_| rng.random::<bool>()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_energy_matches_model(
        n in 1usize..32,
        density_pct in 0usize..=100,
        seed in any::<u64>(),
    ) {
        let q = random_model(n, density_pct as f64 / 100.0, seed);
        let c = q.compile();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        for _ in 0..16 {
            let x = random_bits(n, &mut rng);
            // Same summation order on both paths: exactly equal, not close.
            prop_assert_eq!(c.energy(&x), q.energy(&x));
        }
    }

    #[test]
    fn compiled_flip_delta_matches_model_and_energy_difference(
        n in 1usize..24,
        density_pct in 0usize..=100,
        seed in any::<u64>(),
    ) {
        let q = random_model(n, density_pct as f64 / 100.0, seed);
        let c = q.compile();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let x = random_bits(n, &mut rng);
        for i in 0..n {
            prop_assert_eq!(c.flip_delta(&x, i), q.flip_delta(&x, i));
            let mut y = x.clone();
            y[i] = !y[i];
            let diff = q.energy(&y) - q.energy(&x);
            prop_assert!((c.flip_delta(&x, i) - diff).abs() < 1e-9);
        }
    }

    #[test]
    fn local_fields_agree_with_flip_deltas(
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        let q = random_model(n, 0.3, seed);
        let c = q.compile();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0F0F);
        let x = random_bits(n, &mut rng);
        let fields = c.local_fields(&x);
        for i in 0..n {
            let delta = if x[i] { -fields[i] } else { fields[i] };
            prop_assert_eq!(delta, c.flip_delta(&x, i));
        }
    }

    #[test]
    fn apply_flip_tracks_exact_energy(
        n in 2usize..16,
        seed in any::<u64>(),
    ) {
        let q = random_model(n, 0.4, seed);
        let c = q.compile();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF0F0);
        let mut x = random_bits(n, &mut rng);
        let mut fields = c.local_fields(&x);
        let mut energy = c.energy(&x);
        for _ in 0..32 {
            let i = rng.random_range(0..n);
            energy += c.apply_flip(&mut x, &mut fields, i);
            prop_assert!((energy - c.energy(&x)).abs() < 1e-9);
        }
    }

    #[test]
    fn degree_stats_match_the_interaction_graph(
        n in 1usize..24,
        density_pct in 0usize..=100,
        seed in any::<u64>(),
    ) {
        let q = random_model(n, density_pct as f64 / 100.0, seed);
        let c = q.compile();
        prop_assert_eq!(c.n_interactions(), q.n_interactions());
        let adj = q.neighbor_lists();
        for (i, adj_row) in adj.iter().enumerate() {
            prop_assert_eq!(c.degree(i), adj_row.len());
            let (nbrs, ws) = c.row(i);
            let row: Vec<(usize, f64)> =
                nbrs.iter().zip(ws).map(|(&j, &w)| (j as usize, w)).collect();
            prop_assert_eq!(row, adj_row.clone());
        }
        let max = adj.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert_eq!(c.max_degree(), max);
    }
}

#[test]
fn compiled_energy_matches_model_exhaustively_on_small_model() {
    let q = random_model(10, 0.5, 42);
    let c = q.compile();
    for idx in 0..(1usize << 10) {
        let x = bits_from_index(idx, 10);
        assert_eq!(c.energy(&x), q.energy(&x), "index {idx}");
    }
}
