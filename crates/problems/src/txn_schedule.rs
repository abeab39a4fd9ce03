//! Transaction scheduling as a QUBO — Bittner & Groppe \[29\], \[30\], plus the
//! Grover-search variant of Groppe & Groppe \[31\]; the transaction-management
//! row of Table I.
//!
//! The model ("avoiding blocking by scheduling transactions"): each
//! transaction holds conservative-2PL locks for its whole duration, so
//! conflicting transactions must not overlap in time. Variables `x_{t,s}`
//! place transaction `t` at start slot `s`; one-hot per transaction,
//! quadratic penalties on overlapping conflicting placements, and a
//! start-time objective that pushes work early (the makespan proxy of
//! \[29\]).

use qdm_algos::grover::durr_hoyer_minimum;
use qdm_core::problem::{Decoded, DmProblem};
use qdm_db::txn::{greedy_schedule, Transaction, TxnSchedule};
use qdm_qubo::model::QuboModel;
use qdm_qubo::penalty;
use rand::Rng;

/// A transaction-scheduling problem over a discrete slot horizon.
#[derive(Debug, Clone)]
pub struct TxnScheduleProblem {
    /// The workload.
    pub txns: Vec<Transaction>,
    /// Number of available start slots (horizon).
    pub horizon: usize,
    /// Penalty weight for one-hot and conflict constraints.
    pub penalty_weight: f64,
}

impl TxnScheduleProblem {
    /// Wraps a workload with a horizon and auto-scaled penalty.
    ///
    /// # Panics
    /// Panics if the horizon cannot even hold the longest transaction.
    pub fn new(txns: Vec<Transaction>, horizon: usize) -> Self {
        let max_dur = txns.iter().map(|t| t.duration).max().unwrap_or(1);
        assert!(horizon >= max_dur, "horizon shorter than longest transaction");
        // The objective is sum of start slots, bounded by n * horizon.
        let penalty_weight = 2.0 * (txns.len() * horizon) as f64;
        Self { txns, horizon, penalty_weight }
    }

    #[inline]
    fn var(&self, txn: usize, slot: usize) -> usize {
        txn * self.horizon + slot
    }

    /// Extracts the schedule from bits if every transaction has exactly one
    /// start slot.
    pub fn schedule(&self, bits: &[bool]) -> Option<TxnSchedule> {
        let mut start = vec![0usize; self.txns.len()];
        for (t, s) in start.iter_mut().enumerate() {
            let slots: Vec<usize> = (0..self.horizon).filter(|&sl| bits[self.var(t, sl)]).collect();
            if slots.len() != 1 {
                return None;
            }
            *s = slots[0];
        }
        Some(TxnSchedule { start })
    }

    /// Serial makespan (the worst reasonable baseline).
    pub fn serial_makespan(&self) -> usize {
        self.txns.iter().map(|t| t.duration).sum()
    }
}

impl DmProblem for TxnScheduleProblem {
    fn name(&self) -> String {
        format!("TxnSchedule({} txns, {} slots)", self.txns.len(), self.horizon)
    }

    fn n_vars(&self) -> usize {
        self.txns.len() * self.horizon
    }

    fn to_qubo(&self) -> QuboModel {
        let n = self.txns.len();
        let mut q = QuboModel::new(n * self.horizon);
        // Objective: prefer early starts (quadratic growth approximates
        // makespan pressure); also forbid starts that would overrun the
        // horizon.
        for (t, txn) in self.txns.iter().enumerate() {
            for s in 0..self.horizon {
                if s + txn.duration > self.horizon {
                    q.add_linear(self.var(t, s), self.penalty_weight);
                } else {
                    let finish = (s + txn.duration) as f64;
                    q.add_linear(self.var(t, s), finish * finish / self.horizon as f64);
                }
            }
        }
        // Conflicting transactions must not overlap.
        for (a, ta) in self.txns.iter().enumerate() {
            for (b, tb) in self.txns.iter().enumerate().skip(a + 1) {
                if !ta.conflicts_with(tb) {
                    continue;
                }
                for sa in 0..self.horizon {
                    for sb in 0..self.horizon {
                        let overlap = sa < sb + tb.duration && sb < sa + ta.duration;
                        if overlap {
                            q.add_quadratic(self.var(a, sa), self.var(b, sb), self.penalty_weight);
                        }
                    }
                }
            }
        }
        // One start slot per transaction.
        for t in 0..n {
            let vars: Vec<usize> = (0..self.horizon).map(|s| self.var(t, s)).collect();
            penalty::exactly_one(&mut q, &vars, self.penalty_weight);
        }
        q.fold_couplings();
        q
    }

    fn decode(&self, bits: &[bool]) -> Decoded {
        match self.schedule(bits) {
            Some(schedule) if schedule.is_conflict_free(&self.txns) => {
                let makespan = schedule.makespan(&self.txns);
                Decoded {
                    feasible: makespan <= self.horizon,
                    objective: makespan as f64,
                    summary: format!("starts {:?}", schedule.start),
                }
            }
            Some(schedule) => Decoded {
                feasible: false,
                objective: f64::INFINITY,
                summary: format!("conflicting overlap in {:?}", schedule.start),
            },
            None => Decoded {
                feasible: false,
                objective: f64::INFINITY,
                summary: "one-hot violation".into(),
            },
        }
    }

    fn repair(&self, bits: &[bool]) -> Vec<bool> {
        // Derive a priority order from the (possibly broken) assignment:
        // earliest claimed slot first, unplaced transactions last.
        let mut priority: Vec<(usize, usize)> = (0..self.txns.len())
            .map(|t| {
                let first =
                    (0..self.horizon).find(|&s| bits[self.var(t, s)]).unwrap_or(self.horizon);
                (first, t)
            })
            .collect();
        priority.sort_unstable();
        let order: Vec<usize> = priority.into_iter().map(|(_, t)| t).collect();
        let schedule = greedy_schedule(&self.txns, &order);
        let mut out = vec![false; self.n_vars()];
        for (t, &s) in schedule.start.iter().enumerate() {
            out[self.var(t, s.min(self.horizon - 1))] = true;
        }
        out
    }
}

/// Result of the Grover schedule search.
#[derive(Debug, Clone)]
pub struct GroverScheduleResult {
    /// Best schedule found.
    pub schedule: TxnSchedule,
    /// Its makespan.
    pub makespan: usize,
    /// Quantum oracle queries consumed.
    pub quantum_queries: u64,
}

/// The Groppe & Groppe \[31\] route: encode schedules as bitstrings
/// (`bits_per_txn` bits of start slot per transaction) and run Dürr–Høyer
/// minimum finding over makespan (+ conflict penalties) via Grover search.
///
/// # Panics
/// Panics if the register `txns.len() * bits_per_txn` exceeds 20 qubits.
pub fn grover_schedule_search(
    txns: &[Transaction],
    bits_per_txn: usize,
    rng: &mut impl Rng,
) -> GroverScheduleResult {
    let n_qubits = txns.len() * bits_per_txn;
    assert!(n_qubits <= 20, "Grover register too wide ({n_qubits} qubits)");
    let horizon = 1usize << bits_per_txn;
    let decode = |index: usize| -> TxnSchedule {
        let start =
            (0..txns.len()).map(|t| (index >> (t * bits_per_txn)) & (horizon - 1)).collect();
        TxnSchedule { start }
    };
    let total: usize = txns.iter().map(|t| t.duration).sum();
    let big = (total + horizon) as f64;
    let key = |index: usize| -> f64 {
        let s = decode(index);
        if s.is_conflict_free(txns) {
            s.makespan(txns) as f64
        } else {
            // Penalize by the number of violated pairs so the landscape
            // still guides the threshold search.
            let mut violations = 0;
            for (i, a) in txns.iter().enumerate() {
                for b in txns.iter().skip(i + 1) {
                    if a.conflicts_with(b) {
                        let (sa, ea) = (s.start[a.id], s.start[a.id] + a.duration);
                        let (sb, eb) = (s.start[b.id], s.start[b.id] + b.duration);
                        if sa < eb && sb < ea {
                            violations += 1;
                        }
                    }
                }
            }
            big + violations as f64
        }
    };
    let res = durr_hoyer_minimum(n_qubits, key, rng);
    let schedule = decode(res.index);
    GroverScheduleResult {
        makespan: schedule.makespan(txns),
        schedule,
        quantum_queries: res.quantum_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdm_db::txn::serial_schedule;
    use qdm_qubo::solve::solve_exact;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn txn(id: usize, reads: &[usize], writes: &[usize], dur: usize) -> Transaction {
        Transaction { id, reads: reads.to_vec(), writes: writes.to_vec(), duration: dur }
    }

    /// Two conflicting transactions and one independent one.
    fn workload() -> Vec<Transaction> {
        vec![txn(0, &[], &[0], 2), txn(1, &[0], &[], 2), txn(2, &[], &[5], 1)]
    }

    #[test]
    fn qubo_optimum_is_a_valid_non_blocking_schedule() {
        let problem = TxnScheduleProblem::new(workload(), 4);
        let res = solve_exact(&problem.to_qubo());
        let decoded = problem.decode(&res.bits);
        assert!(decoded.feasible, "decoded: {decoded:?}");
        // Conflicting 0 and 1 serialize -> makespan 4; txn 2 fits inside.
        assert!((decoded.objective - 4.0).abs() < 1e-9, "makespan {}", decoded.objective);
    }

    #[test]
    fn qubo_beats_serial_when_parallelism_exists() {
        let txns = vec![txn(0, &[], &[0], 2), txn(1, &[], &[1], 2), txn(2, &[], &[2], 2)];
        let serial = serial_schedule(&txns).makespan(&txns);
        let problem = TxnScheduleProblem::new(txns, 3);
        let res = solve_exact(&problem.to_qubo());
        let decoded = problem.decode(&res.bits);
        assert!(decoded.feasible);
        assert!((decoded.objective - 2.0).abs() < 1e-9);
        assert_eq!(serial, 6);
    }

    #[test]
    fn infeasible_overlap_is_rejected() {
        let problem = TxnScheduleProblem::new(workload(), 4);
        // Both conflicting transactions at slot 0.
        let mut bits = vec![false; problem.n_vars()];
        bits[problem.var(0, 0)] = true;
        bits[problem.var(1, 0)] = true;
        bits[problem.var(2, 0)] = true;
        let d = problem.decode(&bits);
        assert!(!d.feasible);
    }

    #[test]
    fn repair_always_yields_valid_schedule() {
        let problem = TxnScheduleProblem::new(workload(), 6);
        for bits in [vec![false; problem.n_vars()], vec![true; problem.n_vars()]] {
            let repaired = problem.repair(&bits);
            let d = problem.decode(&repaired);
            assert!(d.feasible, "repair failed: {d:?}");
        }
    }

    #[test]
    fn grover_schedule_search_finds_optimal_makespan() {
        let mut rng = StdRng::seed_from_u64(4);
        let txns = workload();
        let res = grover_schedule_search(&txns, 2, &mut rng);
        assert!(res.schedule.is_conflict_free(&txns));
        assert_eq!(res.makespan, 4);
        assert!(res.quantum_queries > 0);
    }

    #[test]
    fn horizon_validation() {
        let result =
            std::panic::catch_unwind(|| TxnScheduleProblem::new(vec![txn(0, &[], &[0], 5)], 3));
        assert!(result.is_err());
    }
}
