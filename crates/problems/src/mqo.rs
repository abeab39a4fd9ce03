//! Multiple query optimization (MQO) as a QUBO — Trummer & Koch \[20\], the
//! earliest Table I row and the source of the paper's "1000x speedup"
//! anecdote.
//!
//! The model: each query has a set of alternative plans with known costs;
//! pairs of plans (of *different* queries) may share intermediate results,
//! saving cost when both are selected. Choose exactly one plan per query
//! minimizing `sum(chosen plan costs) - sum(savings of co-chosen pairs)`.
//!
//! The logical QUBO is exactly Trummer & Koch's: one binary variable per
//! plan, a one-hot penalty per query, plan costs on the diagonal, negated
//! savings on the couplings. The physical level (Chimera embedding) is
//! provided by `qdm_anneal::embedding`.

use qdm_core::problem::{Decoded, DmProblem};
use qdm_qubo::model::QuboModel;
use qdm_qubo::penalty;
use rand::Rng;

/// An MQO instance.
///
/// The savings are the bulk of an instance (a service holds one per queued
/// or delivered job), so they are stored compactly, grouped by first plan:
/// row offsets per plan, then a `u32` partner and an `f64` saving per pair,
/// 12 bytes a pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MqoInstance {
    /// Number of queries.
    pub n_queries: usize,
    /// `plan_query[p]` = which query plan `p` belongs to. `u32` indices
    /// keep instances compact: services hold one per queued or delivered
    /// job.
    pub plan_query: Vec<u32>,
    /// Cost of each plan.
    pub plan_cost: Vec<f64>,
    /// The savings whose first plan is `p` sit at
    /// `saving_rows[p]..saving_rows[p + 1]` of the two arrays below.
    saving_rows: Vec<u32>,
    saving_partner: Vec<u32>,
    saving_value: Vec<f64>,
}

impl MqoInstance {
    /// Builds an instance from its plans and its savings `(p, q, saving)`:
    /// co-selecting plans `p` and `q` of different queries saves
    /// `saving > 0`. The savings are grouped by first plan `p`, keeping the
    /// given order within a group; [`Self::savings`] yields them in that
    /// order.
    ///
    /// # Panics
    /// Panics if `plan_query` and `plan_cost` differ in length, if a saving
    /// names a plan out of range, or if plans or savings exceed `u32`
    /// indices.
    pub fn new(
        n_queries: usize,
        plan_query: Vec<u32>,
        plan_cost: Vec<f64>,
        savings: &[(u32, u32, f64)],
    ) -> Self {
        let n_plans = plan_cost.len();
        assert_eq!(plan_query.len(), n_plans, "one query per plan");
        assert!(u32::try_from(n_plans).is_ok(), "{n_plans} plans exceed u32 plan indices");
        assert!(u32::try_from(savings.len()).is_ok(), "savings exceed u32 indices");
        // A stable counting sort by first plan.
        let mut saving_rows = vec![0u32; n_plans + 1];
        for &(p, q, _) in savings {
            assert!(
                (p as usize) < n_plans && (q as usize) < n_plans,
                "saving ({p}, {q}) out of range"
            );
            saving_rows[p as usize + 1] += 1;
        }
        for p in 0..n_plans {
            saving_rows[p + 1] += saving_rows[p];
        }
        let mut next: Vec<u32> = saving_rows[..n_plans].to_vec();
        let mut saving_partner = vec![0u32; savings.len()];
        let mut saving_value = vec![0.0f64; savings.len()];
        for &(p, q, s) in savings {
            let at = next[p as usize] as usize;
            next[p as usize] += 1;
            saving_partner[at] = q;
            saving_value[at] = s;
        }
        Self { n_queries, plan_query, plan_cost, saving_rows, saving_partner, saving_value }
    }

    /// Generates a random instance: `n_queries` queries with
    /// `plans_per_query` alternatives each, costs in `[10, 100)`, and each
    /// cross-query plan pair sharing intermediates with probability
    /// `sharing_prob` (saving = fraction of the cheaper plan's cost).
    pub fn generate(
        n_queries: usize,
        plans_per_query: usize,
        sharing_prob: f64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(n_queries >= 1 && plans_per_query >= 1);
        let n_plans = n_queries * plans_per_query;
        assert!(u32::try_from(n_plans).is_ok(), "{n_plans} plans exceed u32 plan indices");
        let plan_query: Vec<u32> = (0..n_plans).map(|p| (p / plans_per_query) as u32).collect();
        let plan_cost: Vec<f64> = (0..n_plans).map(|_| rng.random_range(10.0..100.0)).collect();
        let mut savings = Vec::new();
        for p in 0..n_plans {
            for q in (p + 1)..n_plans {
                if plan_query[p] != plan_query[q] && rng.random::<f64>() < sharing_prob {
                    let cap = plan_cost[p].min(plan_cost[q]);
                    savings.push((p as u32, q as u32, rng.random_range(0.1..0.5) * cap));
                }
            }
        }
        Self::new(n_queries, plan_query, plan_cost, &savings)
    }

    /// The savings `(p, q, saving)`, by ascending first plan `p` and in
    /// insertion order within one `p` (for a generated instance, the order
    /// they were drawn in). [`MqoProblem::to_qubo`] and [`Self::objective`]
    /// add them in this order.
    pub fn savings(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.saving_rows.windows(2).enumerate().flat_map(move |(p, row)| {
            (row[0] as usize..row[1] as usize)
                .map(move |k| (p, self.saving_partner[k] as usize, self.saving_value[k]))
        })
    }

    /// Number of plan variables.
    pub fn n_plans(&self) -> usize {
        self.plan_cost.len()
    }

    /// The plan indices belonging to a query.
    pub fn plans_of(&self, query: usize) -> Vec<usize> {
        (0..self.n_plans()).filter(|&p| self.plan_query[p] as usize == query).collect()
    }

    /// Objective of a full selection (`selection[q]` = plan chosen for
    /// query `q`): total cost minus savings of co-selected pairs.
    pub fn objective(&self, selection: &[usize]) -> f64 {
        assert_eq!(selection.len(), self.n_queries);
        let mut total: f64 = selection.iter().map(|&p| self.plan_cost[p]).sum();
        for (p, q, s) in self.savings() {
            if selection.contains(&p) && selection.contains(&q) {
                total -= s;
            }
        }
        total
    }

    /// Exhaustive optimum — exponential in `n_queries`, for ground truth on
    /// small instances.
    pub fn exhaustive_optimum(&self) -> (Vec<usize>, f64) {
        let groups: Vec<Vec<usize>> = (0..self.n_queries).map(|q| self.plans_of(q)).collect();
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut current = vec![0usize; self.n_queries];
        self.enumerate(&groups, 0, &mut current, &mut best);
        best.expect("at least one selection exists")
    }

    fn enumerate(
        &self,
        groups: &[Vec<usize>],
        q: usize,
        current: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        if q == self.n_queries {
            let obj = self.objective(current);
            if best.as_ref().is_none_or(|(_, b)| obj < *b) {
                *best = Some((current.clone(), obj));
            }
            return;
        }
        for &p in &groups[q] {
            current[q] = p;
            self.enumerate(groups, q + 1, current, best);
        }
    }

    /// Greedy baseline: pick the cheapest plan per query, then improve by
    /// single-query plan swaps until no improvement.
    pub fn greedy(&self) -> (Vec<usize>, f64) {
        let mut selection: Vec<usize> = (0..self.n_queries)
            .map(|q| {
                self.plans_of(q)
                    .into_iter()
                    .min_by(|&a, &b| self.plan_cost[a].total_cmp(&self.plan_cost[b]))
                    .expect("query has plans")
            })
            .collect();
        let mut obj = self.objective(&selection);
        loop {
            let mut improved = false;
            for q in 0..self.n_queries {
                for p in self.plans_of(q) {
                    if selection[q] == p {
                        continue;
                    }
                    let old = selection[q];
                    selection[q] = p;
                    let new_obj = self.objective(&selection);
                    if new_obj < obj - 1e-12 {
                        obj = new_obj;
                        improved = true;
                    } else {
                        selection[q] = old;
                    }
                }
            }
            if !improved {
                return (selection, obj);
            }
        }
    }
}

/// The [`DmProblem`] wrapper carrying the penalty weight.
#[derive(Debug, Clone)]
pub struct MqoProblem {
    /// The instance.
    pub instance: MqoInstance,
    /// One-hot penalty weight; use [`MqoProblem::new`] for the heuristic.
    pub penalty_weight: f64,
}

impl MqoProblem {
    /// Wraps an instance with an automatically chosen penalty weight
    /// (larger than any achievable objective swing).
    pub fn new(instance: MqoInstance) -> Self {
        let cost_span: f64 = instance.plan_cost.iter().fold(0.0f64, |m, &c| m.max(c));
        let saving_span: f64 = instance.savings().map(|(_, _, s)| s).sum();
        Self { penalty_weight: 2.0 * (cost_span + saving_span).max(1.0), instance }
    }

    /// Extracts the per-query selection from an assignment if feasible.
    pub fn selection(&self, bits: &[bool]) -> Option<Vec<usize>> {
        let mut selection = Vec::with_capacity(self.instance.n_queries);
        for q in 0..self.instance.n_queries {
            let chosen: Vec<usize> =
                self.instance.plans_of(q).into_iter().filter(|&p| bits[p]).collect();
            if chosen.len() != 1 {
                return None;
            }
            selection.push(chosen[0]);
        }
        Some(selection)
    }
}

impl DmProblem for MqoProblem {
    fn name(&self) -> String {
        format!(
            "MQO({} queries x {} plans)",
            self.instance.n_queries,
            self.instance.n_plans() / self.instance.n_queries.max(1)
        )
    }

    fn n_vars(&self) -> usize {
        self.instance.n_plans()
    }

    fn to_qubo(&self) -> QuboModel {
        let mut q = QuboModel::new(self.instance.n_plans());
        for (p, &c) in self.instance.plan_cost.iter().enumerate() {
            q.add_linear(p, c);
        }
        for (p1, p2, s) in self.instance.savings() {
            q.add_quadratic(p1, p2, -s);
        }
        for query in 0..self.instance.n_queries {
            penalty::exactly_one(&mut q, &self.instance.plans_of(query), self.penalty_weight);
        }
        q.fold_couplings();
        q
    }

    fn decode(&self, bits: &[bool]) -> Decoded {
        match self.selection(bits) {
            Some(selection) => Decoded {
                feasible: true,
                objective: self.instance.objective(&selection),
                summary: format!("plans {selection:?}"),
            },
            None => Decoded {
                feasible: false,
                objective: f64::INFINITY,
                summary: "one-hot violation".into(),
            },
        }
    }

    fn repair(&self, bits: &[bool]) -> Vec<bool> {
        let mut out = vec![false; bits.len()];
        for query in 0..self.instance.n_queries {
            let plans = self.instance.plans_of(query);
            let chosen: Vec<usize> = plans.iter().copied().filter(|&p| bits[p]).collect();
            let keep = match chosen.len() {
                1 => chosen[0],
                0 => plans
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        self.instance.plan_cost[a].total_cmp(&self.instance.plan_cost[b])
                    })
                    .expect("query has plans"),
                _ => chosen
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        self.instance.plan_cost[a].total_cmp(&self.instance.plan_cost[b])
                    })
                    .expect("nonempty"),
            };
            out[keep] = true;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdm_qubo::solve::solve_exact;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(seed: u64, queries: usize, plans: usize) -> MqoInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MqoInstance::generate(queries, plans, 0.3, &mut rng)
    }

    #[test]
    fn generator_shapes() {
        let inst = instance(1, 4, 3);
        assert_eq!(inst.n_plans(), 12);
        assert_eq!(inst.plans_of(0), vec![0, 1, 2]);
        assert_eq!(inst.plans_of(3), vec![9, 10, 11]);
        for (p, q, s) in inst.savings() {
            assert!(p < q);
            assert_ne!(inst.plan_query[p], inst.plan_query[q]);
            assert!(s > 0.0);
        }
    }

    #[test]
    fn generated_savings_carry_no_growth_slack() {
        let inst = instance(2, 32, 4);
        let pairs = inst.savings().count();
        assert!(pairs > 100);
        assert_eq!(inst.saving_partner.capacity(), pairs);
        assert_eq!(inst.saving_value.capacity(), pairs);
        assert_eq!(inst.saving_rows.capacity(), inst.n_plans() + 1);
    }

    #[test]
    fn new_groups_savings_by_first_plan_and_keeps_their_order() {
        let generated = instance(4, 6, 3);
        let listed: Vec<(u32, u32, f64)> =
            generated.savings().map(|(p, q, s)| (p as u32, q as u32, s)).collect();
        assert!(listed.len() > 10);
        // Rebuilding from the list gives back the same instance...
        let rebuilt = MqoInstance::new(
            generated.n_queries,
            generated.plan_query.clone(),
            generated.plan_cost.clone(),
            &listed,
        );
        assert_eq!(rebuilt, generated);
        // ...and so does any order that keeps each first plan's pairs in
        // sequence, such as the groups listed last plan first.
        let mut regrouped = listed.clone();
        regrouped.sort_by_key(|&(p, _, _)| std::cmp::Reverse(p));
        let regrouped = MqoInstance::new(
            generated.n_queries,
            generated.plan_query.clone(),
            generated.plan_cost.clone(),
            &regrouped,
        );
        let got: Vec<_> = regrouped.savings().collect();
        let want: Vec<_> = generated.savings().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn qubo_optimum_matches_exhaustive_optimum() {
        for seed in 0..5 {
            let inst = instance(seed, 3, 3);
            let (_, best_obj) = inst.exhaustive_optimum();
            let problem = MqoProblem::new(inst);
            let res = solve_exact(&problem.to_qubo());
            let decoded = problem.decode(&res.bits);
            assert!(decoded.feasible, "seed {seed}: infeasible QUBO optimum");
            assert!(
                (decoded.objective - best_obj).abs() < 1e-9,
                "seed {seed}: qubo {} vs exhaustive {}",
                decoded.objective,
                best_obj
            );
        }
    }

    #[test]
    fn permuted_instance_has_same_canonical_fingerprint() {
        // The same MQO instance with its plan variables enumerated in
        // reverse order: the label-sensitive fingerprint differs, the
        // canonical fingerprint — the runtime's cache key — does not.
        let inst = instance(3, 3, 2);
        let n = inst.n_plans();
        let to: Vec<usize> = (0..n).rev().collect();
        let mut plan_query = vec![0u32; n];
        let mut plan_cost = vec![0.0f64; n];
        for (p, &t) in to.iter().enumerate() {
            plan_query[t] = inst.plan_query[p];
            plan_cost[t] = inst.plan_cost[p];
        }
        let savings: Vec<(u32, u32, f64)> = inst
            .savings()
            .map(|(p, q, s)| {
                let (p, q) = (to[p] as u32, to[q] as u32);
                (p.min(q), p.max(q), s)
            })
            .collect();
        let permuted = MqoInstance::new(inst.n_queries, plan_query, plan_cost, &savings);
        let original_qubo = MqoProblem::new(inst).to_qubo();
        let permuted_qubo = MqoProblem::new(permuted).to_qubo();
        assert_ne!(
            original_qubo.fingerprint(),
            permuted_qubo.fingerprint(),
            "plain fingerprint is label-sensitive"
        );
        assert_eq!(
            original_qubo.canonical_fingerprint(),
            permuted_qubo.canonical_fingerprint(),
            "canonical fingerprint must be invariant under plan relabeling"
        );
    }

    #[test]
    fn qubo_energy_equals_objective_on_feasible_assignments() {
        let inst = instance(7, 3, 2);
        let problem = MqoProblem::new(inst.clone());
        let q = problem.to_qubo();
        // Feasible assignment: plan 0 of each query.
        let mut bits = vec![false; inst.n_plans()];
        for query in 0..inst.n_queries {
            bits[inst.plans_of(query)[0]] = true;
        }
        let selection: Vec<usize> = (0..inst.n_queries).map(|qq| inst.plans_of(qq)[0]).collect();
        assert!(
            (q.energy(&bits) - inst.objective(&selection)).abs() < 1e-9,
            "penalty terms must vanish on feasible assignments"
        );
    }

    #[test]
    fn greedy_is_feasible_and_bounded_by_optimum() {
        let inst = instance(3, 4, 3);
        let (_, opt) = inst.exhaustive_optimum();
        let (sel, obj) = inst.greedy();
        assert_eq!(sel.len(), 4);
        assert!(obj >= opt - 1e-9);
    }

    #[test]
    fn repair_fixes_violations() {
        let inst = instance(5, 3, 3);
        let problem = MqoProblem::new(inst);
        // All-false and all-true both get repaired.
        let fixed0 = problem.repair(&[false; 9]);
        assert!(problem.decode(&fixed0).feasible);
        let fixed1 = problem.repair(&[true; 9]);
        assert!(problem.decode(&fixed1).feasible);
    }

    #[test]
    fn savings_reduce_objective() {
        let inst =
            MqoInstance::new(2, vec![0, 0, 1, 1], vec![10.0, 12.0, 20.0, 21.0], &[(1, 3, 15.0)]);
        // Without savings the best is plans {0, 2} = 30; with the shared
        // pair {1, 3} = 33 - 15 = 18.
        let (sel, obj) = inst.exhaustive_optimum();
        assert_eq!(sel, vec![1, 3]);
        assert!((obj - 18.0).abs() < 1e-12);
    }
}
