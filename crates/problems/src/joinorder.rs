//! Join ordering as a QUBO — the Schönberger et al. \[23\]–\[25\] (left-deep)
//! and Nayak et al. \[26\] (bushy) rows of Table I.
//!
//! ## Encoding
//! A *template* join tree fixes the shape; binary variables `x_{r,l}`
//! assign relation `r` to leaf slot `l`, with one-hot penalties in both
//! directions. The cost objective is the **sum of log-cardinalities** of
//! every internal node:
//! `sum_v [ sum_r log(card_r) * [r under v] + sum_{(r,s) in E} log(sel_rs) * [r under v][s under v] ]`,
//! which is exactly quadratic in `x` because "relation under node" is a
//! linear indicator sum. A left-deep template reproduces the positional
//! BILP→QUBO encodings of \[23\]–\[25\]; a balanced template yields bushy
//! trees as in \[26\].
//!
//! The log-sum objective is a standard quadratization of `C_out` (the
//! product structure of cardinalities becomes additive in log space);
//! decoded plans are always re-costed with the true `C_out` model.

use qdm_core::problem::{Decoded, DmProblem};
use qdm_db::plan::{CostModel, JoinTree};
use qdm_db::query::QueryGraph;
use qdm_qubo::model::QuboModel;
use qdm_qubo::penalty;

/// A join-ordering problem over a fixed tree template.
#[derive(Debug, Clone)]
pub struct JoinOrderProblem {
    /// The query graph.
    pub graph: QueryGraph,
    /// Template tree whose leaves are *slot ids* `0..n`.
    pub template: JoinTree,
    /// One-hot penalty weight.
    pub penalty_weight: f64,
}

/// Builds a left-deep template over `n` slots (slot 0 deepest).
pub fn left_deep_template(n: usize) -> JoinTree {
    JoinTree::left_deep(&(0..n).collect::<Vec<_>>())
}

/// Builds a balanced bushy template over `n` slots.
pub fn balanced_template(n: usize) -> JoinTree {
    fn build(slots: &[usize]) -> JoinTree {
        match slots {
            [s] => JoinTree::Leaf(*s),
            _ => {
                let mid = slots.len() / 2;
                JoinTree::Join(Box::new(build(&slots[..mid])), Box::new(build(&slots[mid..])))
            }
        }
    }
    assert!(n >= 1);
    build(&(0..n).collect::<Vec<_>>())
}

/// Replaces template leaves (slot ids) by the relations assigned to them.
pub fn instantiate(template: &JoinTree, relation_of_slot: &[usize]) -> JoinTree {
    match template {
        JoinTree::Leaf(slot) => JoinTree::Leaf(relation_of_slot[*slot]),
        JoinTree::Join(l, r) => JoinTree::Join(
            Box::new(instantiate(l, relation_of_slot)),
            Box::new(instantiate(r, relation_of_slot)),
        ),
    }
}

/// Collects the leaf-slot sets of every internal node.
fn internal_leaf_sets(tree: &JoinTree) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    fn walk(t: &JoinTree, out: &mut Vec<Vec<usize>>) -> Vec<usize> {
        match t {
            JoinTree::Leaf(s) => vec![*s],
            JoinTree::Join(l, r) => {
                let mut leaves = walk(l, out);
                leaves.extend(walk(r, out));
                out.push(leaves.clone());
                leaves
            }
        }
    }
    walk(tree, &mut out);
    out
}

impl JoinOrderProblem {
    /// Left-deep join ordering for a query graph (\[23\]–\[25\]).
    pub fn left_deep(graph: QueryGraph) -> Self {
        let n = graph.n_relations();
        Self::with_template(graph, left_deep_template(n))
    }

    /// Bushy join ordering over a balanced template (\[26\]).
    pub fn bushy(graph: QueryGraph) -> Self {
        let n = graph.n_relations();
        Self::with_template(graph, balanced_template(n))
    }

    /// Custom template; leaves must be slot ids `0..n_relations`.
    pub fn with_template(graph: QueryGraph, template: JoinTree) -> Self {
        let n = graph.n_relations();
        assert_eq!(template.n_leaves(), n, "template must have one leaf per relation");
        // Penalty must dominate the log-cost objective: its coefficients
        // are sums over <= n-1 internal nodes of |log| terms.
        let max_log = graph
            .cardinalities
            .iter()
            .map(|c| c.log10().abs())
            .chain(graph.edges.iter().map(|e| e.selectivity.log10().abs()))
            .fold(1.0f64, f64::max);
        let penalty_weight = 4.0 * max_log * n as f64;
        Self { graph, template, penalty_weight }
    }

    /// Number of relations / slots.
    pub fn n_relations(&self) -> usize {
        self.graph.n_relations()
    }

    #[inline]
    fn var(&self, relation: usize, slot: usize) -> usize {
        relation * self.n_relations() + slot
    }

    /// Extracts `relation_of_slot` if the assignment is a permutation.
    pub fn assignment(&self, bits: &[bool]) -> Option<Vec<usize>> {
        let n = self.n_relations();
        let mut relation_of_slot = vec![usize::MAX; n];
        for r in 0..n {
            let slots: Vec<usize> = (0..n).filter(|&l| bits[self.var(r, l)]).collect();
            if slots.len() != 1 {
                return None;
            }
            if relation_of_slot[slots[0]] != usize::MAX {
                return None;
            }
            relation_of_slot[slots[0]] = r;
        }
        Some(relation_of_slot)
    }

    /// The instantiated join tree for a feasible assignment.
    pub fn tree_from_bits(&self, bits: &[bool]) -> Option<JoinTree> {
        self.assignment(bits).map(|slots| instantiate(&self.template, &slots))
    }

    /// The log-cost proxy of a slot assignment (what the QUBO optimizes).
    pub fn log_cost(&self, relation_of_slot: &[usize]) -> f64 {
        let cm = CostModel::new(&self.graph);
        let tree = instantiate(&self.template, relation_of_slot);
        internal_leaf_sets(&tree)
            .iter()
            .map(|rels| {
                let mask = rels.iter().fold(0u64, |m, &r| m | (1u64 << r));
                cm.cardinality(mask).log10()
            })
            .sum()
    }
}

impl DmProblem for JoinOrderProblem {
    fn name(&self) -> String {
        let kind = if self.template.is_left_deep() { "left-deep" } else { "bushy" };
        format!("JoinOrder({kind}, {} relations)", self.n_relations())
    }

    fn n_vars(&self) -> usize {
        let n = self.n_relations();
        n * n
    }

    #[allow(clippy::needless_range_loop)] // index math mirrors the paper's QUBO sums
    fn to_qubo(&self) -> QuboModel {
        let n = self.n_relations();
        let mut q = QuboModel::new(n * n);
        // Coverage counts: c1[l] = #internal nodes covering slot l;
        // c2[l][l'] = #internal nodes covering both.
        let sets = internal_leaf_sets(&self.template);
        let mut c1 = vec![0.0f64; n];
        let mut c2 = vec![vec![0.0f64; n]; n];
        for set in &sets {
            for (i, &a) in set.iter().enumerate() {
                c1[a] += 1.0;
                for &b in &set[i + 1..] {
                    c2[a][b] += 1.0;
                    c2[b][a] += 1.0;
                }
            }
        }
        // Linear: relation r at slot l contributes log(card_r) for every
        // covering internal node.
        for r in 0..n {
            let lc = self.graph.cardinalities[r].log10();
            for l in 0..n {
                q.add_linear(self.var(r, l), lc * c1[l]);
            }
        }
        // Quadratic: each join predicate contributes log(sel) whenever both
        // endpoints sit under a common internal node.
        for e in &self.graph.edges {
            let ls = e.selectivity.log10();
            for l in 0..n {
                for lp in 0..n {
                    if l != lp {
                        q.add_quadratic(self.var(e.a, l), self.var(e.b, lp), ls * c2[l][lp]);
                    }
                }
            }
        }
        // One-hot in both directions.
        for r in 0..n {
            let vars: Vec<usize> = (0..n).map(|l| self.var(r, l)).collect();
            penalty::exactly_one(&mut q, &vars, self.penalty_weight);
        }
        for l in 0..n {
            let vars: Vec<usize> = (0..n).map(|r| self.var(r, l)).collect();
            penalty::exactly_one(&mut q, &vars, self.penalty_weight);
        }
        q.fold_couplings();
        q
    }

    fn decode(&self, bits: &[bool]) -> Decoded {
        match self.tree_from_bits(bits) {
            Some(tree) => {
                let cm = CostModel::new(&self.graph);
                let cost = cm.cost(&tree);
                Decoded { feasible: true, objective: cost, summary: format!("{tree}") }
            }
            None => Decoded {
                feasible: false,
                objective: f64::INFINITY,
                summary: "not a permutation".into(),
            },
        }
    }

    fn repair(&self, bits: &[bool]) -> Vec<bool> {
        let n = self.n_relations();
        let mut relation_of_slot = vec![usize::MAX; n];
        let mut used = vec![false; n];
        // Keep unambiguous claims.
        for l in 0..n {
            let claims: Vec<usize> = (0..n).filter(|&r| bits[self.var(r, l)] && !used[r]).collect();
            if let [r] = claims[..] {
                relation_of_slot[l] = r;
                used[r] = true;
            }
        }
        // Fill remaining slots with remaining relations.
        let mut free: Vec<usize> = (0..n).filter(|&r| !used[r]).collect();
        for slot in relation_of_slot.iter_mut() {
            if *slot == usize::MAX {
                *slot = free.pop().expect("counts match");
            }
        }
        let mut out = vec![false; n * n];
        for (l, &r) in relation_of_slot.iter().enumerate() {
            out[self.var(r, l)] = true;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdm_db::optimizer::{optimal_bushy, optimal_left_deep};
    use qdm_db::query::GraphShape;
    use qdm_qubo::solve::solve_exact;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(seed: u64, shape: GraphShape, n: usize) -> QueryGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        QueryGraph::generate(shape, n, &mut rng)
    }

    /// Brute force over permutations: minimum of the log-cost proxy.
    fn brute_force_log_opt(p: &JoinOrderProblem) -> f64 {
        let n = p.n_relations();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best = f64::INFINITY;
        fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
            if k == v.len() {
                f(v);
                return;
            }
            for i in k..v.len() {
                v.swap(k, i);
                permute(v, k + 1, f);
                v.swap(k, i);
            }
        }
        permute(&mut perm, 0, &mut |order| {
            best = best.min(p.log_cost(order));
        });
        best
    }

    #[test]
    fn templates_have_expected_shapes() {
        assert!(left_deep_template(5).is_left_deep());
        let b = balanced_template(4);
        assert!(!b.is_left_deep());
        assert_eq!(b.n_leaves(), 4);
    }

    #[test]
    fn qubo_optimum_is_feasible_and_matches_log_proxy_optimum() {
        for shape in [GraphShape::Chain, GraphShape::Star, GraphShape::Cycle] {
            let p = JoinOrderProblem::left_deep(graph(3, shape, 4));
            let res = solve_exact(&p.to_qubo());
            let assignment = p.assignment(&res.bits).expect("feasible optimum");
            let got = p.log_cost(&assignment);
            let want = brute_force_log_opt(&p);
            assert!(
                (got - want).abs() < 1e-9,
                "{shape:?}: qubo log-cost {got} vs brute force {want}"
            );
        }
    }

    #[test]
    fn decoded_left_deep_plan_is_near_dp_optimum() {
        for seed in [1, 2, 3] {
            let g = graph(seed, GraphShape::Chain, 5);
            let p = JoinOrderProblem::left_deep(g.clone());
            let res = solve_exact(&p.to_qubo());
            let decoded = p.decode(&res.bits);
            assert!(decoded.feasible);
            let dp = optimal_left_deep(&g);
            // Log-proxy optimum should be within a small factor of C_out optimum.
            assert!(
                decoded.objective <= 10.0 * dp.cost + 1e-9,
                "seed {seed}: qubo plan {} vs dp {}",
                decoded.objective,
                dp.cost
            );
        }
    }

    #[test]
    fn bushy_template_produces_bushy_trees() {
        let g = graph(5, GraphShape::Chain, 4);
        let p = JoinOrderProblem::bushy(g.clone());
        let res = solve_exact(&p.to_qubo());
        let tree = p.tree_from_bits(&res.bits).expect("feasible");
        assert!(!tree.is_left_deep());
        assert_eq!(tree.relation_mask(), 0b1111);
        // Bushy optimum within the template class can't beat the global DP
        // bound.
        let decoded = p.decode(&res.bits);
        assert!(decoded.objective >= optimal_bushy(&g).cost - 1e-9);
    }

    #[test]
    fn infeasible_bits_are_detected_and_repairable() {
        let g = graph(9, GraphShape::Star, 4);
        let p = JoinOrderProblem::left_deep(g);
        let bad = vec![false; p.n_vars()];
        assert!(!p.decode(&bad).feasible);
        let repaired = p.repair(&bad);
        assert!(p.decode(&repaired).feasible);
        // All-true also repairs.
        let repaired2 = p.repair(&vec![true; p.n_vars()]);
        assert!(p.decode(&repaired2).feasible);
    }

    #[test]
    fn log_cost_orders_plans_like_cout_on_chains() {
        // On a chain, both metrics must agree that following the chain is
        // better than starting with a cross product.
        let g = QueryGraph::new(
            vec![100.0, 1000.0, 500.0],
            vec![
                qdm_db::query::JoinEdge { a: 0, b: 1, selectivity: 0.001 },
                qdm_db::query::JoinEdge { a: 1, b: 2, selectivity: 0.01 },
            ],
        );
        let p = JoinOrderProblem::left_deep(g.clone());
        let cm = CostModel::new(&g);
        let chain_order = [0usize, 1, 2];
        let cross_order = [0usize, 2, 1];
        assert!(p.log_cost(&chain_order) < p.log_cost(&cross_order));
        assert!(cm.cost_left_deep(&chain_order) < cm.cost_left_deep(&cross_order));
    }
}
