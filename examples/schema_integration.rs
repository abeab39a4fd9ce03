//! Data integration: schema matching as a QUBO (Table I, [28]) — two
//! messy schemas matched by the quantum route, the exact matcher, and a
//! greedy baseline, scored against ground truth.
//!
//! ```text
//! cargo run --example schema_integration --release
//! ```

use qdm::prelude::*;
use qdm::problems::schema::{MatchingInstance, Schema as DbSchema};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(28);

    // A hand-written pair of schemas with the usual naming drift.
    let crm = DbSchema::new(&[
        ("customer_id", DataType::Number),
        ("email_address", DataType::Text),
        ("phone_number", DataType::Text),
        ("created_at", DataType::Date),
        ("total_amount", DataType::Number),
    ]);
    let warehouse = DbSchema::new(&[
        ("t_created_at", DataType::Date),
        ("customerid", DataType::Number),
        ("phonenumber", DataType::Text),
        ("emailaddr", DataType::Text),
        ("amount_total", DataType::Number),
        ("loading_batch", DataType::Text),
    ]);
    println!("## Schemas");
    println!("  CRM:       {:?}", crm.attributes.iter().map(|a| &a.name).collect::<Vec<_>>());
    println!("  Warehouse: {:?}", warehouse.attributes.iter().map(|a| &a.name).collect::<Vec<_>>());

    let inst = MatchingInstance::new(crm, warehouse);
    println!("\n## Similarity matrix (— marks type-incompatible pairs)");
    for i in 0..inst.source.len() {
        let cells: Vec<String> = (0..inst.target.len())
            .map(|j| inst.similarity(i, j).map_or("  —  ".to_string(), |v| format!("{v:.3}")))
            .collect();
        println!("  {} | {}", inst.source.attributes[i].name, cells.join("  "));
    }

    // Exact and greedy baselines.
    let (exact, exact_score) = inst.exact_matching();
    let (greedy, greedy_score) = inst.greedy_matching(0.25);
    println!("\n## Matchings");
    let render = |m: &[Option<usize>]| -> Vec<String> {
        m.iter()
            .enumerate()
            .map(|(i, j)| match j {
                Some(j) => format!(
                    "{} -> {}",
                    inst.source.attributes[i].name, inst.target.attributes[*j].name
                ),
                None => format!("{} -> (unmatched)", inst.source.attributes[i].name),
            })
            .collect()
    };
    println!("  exact   (score {exact_score:.3}): {:?}", render(&exact));
    println!("  greedy  (score {greedy_score:.3}): {:?}", render(&greedy));

    // The quantum route.
    let problem = SchemaMatchingProblem::new(inst.clone());
    let report = run_pipeline(
        &problem,
        &SaSolver::default(),
        &PipelineOptions { repair: true, ..Default::default() },
        &mut rng,
    );
    let matching = problem.matching(&report.bits).expect("feasible");
    println!("  QUBO+SA (score {:.3}): {:?}", -report.decoded.objective, render(&matching));

    // Synthetic benchmark with known ground truth.
    println!("\n## Seeded benchmark (8 attributes + 3 noise columns)");
    let (bench, truth) = generate_benchmark(8, 3, &mut rng);
    let bench_problem = SchemaMatchingProblem::new(bench);
    let report = run_pipeline(
        &bench_problem,
        &TabuSolver::default(),
        &PipelineOptions { repair: true, ..Default::default() },
        &mut rng,
    );
    let predicted = bench_problem.matching(&report.bits).expect("feasible");
    let (precision, recall) = precision_recall(&predicted, &truth);
    println!("  QUBO+tabu precision {precision:.2}, recall {recall:.2} ({} vars)", report.n_vars);
}
