//! Correctness and ledger checks, made on every run.
//!
//! A job fails when it errors, is shed, never resolves, or delivers a
//! result that does not hold up: bits of the wrong length, an energy its
//! problem's own encoding does not give those bits, a feasibility flag its
//! own decode does not give, or — for a result served from the cache or
//! from a concurrent duplicate — an energy that no solve of the same work
//! produced. Each ledger imbalance counts as one more failure.

use crate::drive::{Delivered, Outcome, Run};
use crate::stream::Job;
use qdm_qubo::model::QuboModel;
use qdm_runtime::metrics::RuntimeReport;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Failure messages printed per run; the count covers them all.
const MAX_MESSAGES: usize = 8;

pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    pub delivered: usize,
    pub feasible: usize,
    messages: Vec<String>,
}

impl Checks {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    pub fn print(&self, label: &str) {
        println!(
            "checks ({label}): {} attempted, {} delivered, {} failed",
            self.attempted, self.delivered, self.failed
        );
        for message in &self.messages {
            println!("check failed ({label}): {message}");
        }
    }
}

/// Energies agree up to rounding: a relabeled model sums the same terms in
/// another order.
fn same_energy(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

pub fn run(run: &Run) -> Checks {
    let mut checks = Checks {
        attempted: run.records.len(),
        failed: 0,
        delivered: 0,
        feasible: 0,
        messages: vec![],
    };
    let mut models: HashMap<*const (), QuboModel> = HashMap::new();
    // Per original: (energy, served, stream index) of every delivered job
    // doing the same work.
    let mut groups: BTreeMap<usize, Vec<(f64, bool, usize)>> = BTreeMap::new();
    let mut sheds = 0;
    for (index, (job, record)) in run.jobs.iter().zip(&run.records).enumerate() {
        let result = match &record.outcome {
            Outcome::Delivered(result) => result,
            Outcome::Error(err) => {
                checks.fail(format!("job {index}: {err}"));
                continue;
            }
            Outcome::Shed => {
                sheds += 1;
                checks.fail(format!("job {index}: shed"));
                continue;
            }
            Outcome::Pending => {
                checks.fail(format!("job {index}: never resolved"));
                continue;
            }
        };
        checks.delivered += 1;
        if let Err(err) = verify(job, result, &mut models) {
            checks.fail(format!("job {index} ({}): {err}", job.problem.name()));
            continue;
        }
        checks.feasible += usize::from(result.feasible);
        groups.entry(job.root(index)).or_default().push((result.energy, result.served(), index));
    }
    for members in groups.values() {
        let solved: Vec<f64> = members.iter().filter(|m| !m.1).map(|m| m.0).collect();
        for &(energy, _, index) in members.iter().filter(|m| m.1) {
            if !solved.iter().any(|&e| same_energy(e, energy)) {
                checks.fail(format!(
                    "job {index}: served energy {energy} matches no solve of the same work {solved:?}"
                ));
            }
        }
    }
    ledger(run, sheds, &mut checks);
    checks
}

/// Re-derives a delivered result from the job's own problem.
fn verify(
    job: &Job,
    result: &Delivered,
    models: &mut HashMap<*const (), QuboModel>,
) -> Result<(), String> {
    if result.bits.len() != job.n_vars {
        return Err(format!("{} bits for {} variables", result.bits.len(), job.n_vars));
    }
    let model = models
        .entry(Arc::as_ptr(&job.problem) as *const ())
        .or_insert_with(|| job.problem.to_qubo());
    let energy = model.energy(&result.bits);
    if !same_energy(energy, result.energy) {
        return Err(format!("reported energy {} but its bits score {energy}", result.energy));
    }
    let feasible = job.problem.decode(&result.bits).feasible;
    if feasible != result.feasible {
        return Err(format!("reported feasible={} but decode says {feasible}", result.feasible));
    }
    Ok(())
}

/// The ledger balances over the system's whole life, warm-up included, and
/// its movement over the measured phase matches what the client saw: every
/// accepted job was submitted, every shed one was not, and every delivered
/// one completed.
fn ledger(run: &Run, sheds: usize, checks: &mut Checks) {
    let before = RuntimeReport::merge(&run.reports_before);
    let after = RuntimeReport::merge(&run.reports_after);
    let resolved = after.jobs_completed + after.jobs_failed + after.jobs_cancelled;
    if after.jobs_submitted != resolved {
        checks.fail(format!(
            "ledger: {} submitted but {resolved} completed, failed or cancelled",
            after.jobs_submitted
        ));
    }
    let submitted = after.jobs_submitted - before.jobs_submitted;
    let shed = after.jobs_shed - before.jobs_shed;
    if submitted + shed != checks.attempted as u64 || shed != sheds as u64 {
        checks.fail(format!(
            "ledger: {submitted} submitted and {shed} shed, but the client attempted {} and saw {sheds} shed",
            checks.attempted
        ));
    }
    let completed = after.jobs_completed - before.jobs_completed;
    if completed != checks.delivered as u64 {
        checks.fail(format!(
            "ledger: {completed} completed, but the client received {}",
            checks.delivered
        ));
    }
}

/// How far the traced run reproduced the untraced one.
pub struct Fidelity {
    compared: usize,
    /// Served in at least one run, so not a solve to compare.
    served: usize,
    /// Solved in both runs, on different backends.
    rerouted: usize,
    pub mismatches: usize,
    first: Option<String>,
}

impl Fidelity {
    fn mismatch(&mut self, message: String) {
        self.mismatches += 1;
        self.first.get_or_insert(message);
    }

    pub fn print(&self) {
        println!(
            "fidelity: {} jobs solved on the same backend in both runs compared, {} mismatched; \
             not compared: {} served in a run, {} solved on different backends",
            self.compared, self.mismatches, self.served, self.rerouted
        );
        if let Some(message) = &self.first {
            println!("fidelity mismatch: {message}");
        }
    }
}

/// Tracing and the layer timers must not change what the runtime computes:
/// a job that the untraced and the traced run of one seed both solved on
/// the same backend must get the same energy, bit for bit. Jobs the runs
/// handled differently — another backend, or served in one run and solved
/// in the other — are counted, not compared: routing reads wall-clock
/// calibration, and whether a repeat is served depends on timing.
pub fn fidelity(plain: &Run, traced: &Run) -> Fidelity {
    let mut fidelity = Fidelity { compared: 0, served: 0, rerouted: 0, mismatches: 0, first: None };
    for (index, (a, b)) in plain.jobs.iter().zip(&traced.jobs).enumerate() {
        if (a.seed, a.n_vars, a.origin) != (b.seed, b.n_vars, b.origin) {
            fidelity.mismatch(format!("the two streams differ at job {index}"));
            continue;
        }
        let (Outcome::Delivered(a), Outcome::Delivered(b)) =
            (&plain.records[index].outcome, &traced.records[index].outcome)
        else {
            continue;
        };
        if a.served() || b.served() {
            fidelity.served += 1;
            continue;
        }
        if a.backend != b.backend {
            fidelity.rerouted += 1;
            continue;
        }
        fidelity.compared += 1;
        if a.energy.to_bits() != b.energy.to_bits() {
            fidelity.mismatch(format!(
                "job {index} on {}: energy {} untraced, {} traced",
                a.backend, a.energy, b.energy
            ));
        }
    }
    fidelity
}
