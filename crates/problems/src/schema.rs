//! Schema matching as a QUBO — Fritsch & Scherzinger \[28\], the data-
//! integration row of Table I.
//!
//! Attributes of two schemas are paired by maximizing a string-similarity
//! reward under one-to-one matching constraints (at most one partner per
//! attribute). The QUBO has one variable per candidate pair, negated
//! similarity rewards on the diagonal, and at-most-one penalties per row
//! and column; type-incompatible pairs are excluded outright ("hard
//! variants" of matching, as in \[28\]).

use qdm_core::problem::{Decoded, DmProblem};
use qdm_qubo::model::QuboModel;
use qdm_qubo::penalty;
use rand::Rng;

/// An attribute: name plus a coarse data type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Coarse type used for hard compatibility constraints.
    pub data_type: DataType,
}

/// Coarse attribute types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Numeric.
    Number,
    /// Text.
    Text,
    /// Date/time.
    Date,
}

/// A schema: a list of attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// Attributes in declaration order.
    pub attributes: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(attrs: &[(&str, DataType)]) -> Self {
        Self {
            attributes: attrs
                .iter()
                .map(|(n, t)| Attribute { name: (*n).to_string(), data_type: *t })
                .collect(),
        }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }
}

/// Levenshtein edit distance between two strings.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Character-bigram Jaccard similarity in `[0, 1]`.
pub fn bigram_jaccard(a: &str, b: &str) -> f64 {
    let grams = |s: &str| -> std::collections::HashSet<(char, char)> {
        let lower: Vec<char> = s.to_lowercase().chars().collect();
        lower.windows(2).map(|w| (w[0], w[1])).collect()
    };
    let ga = grams(a);
    let gb = grams(b);
    if ga.is_empty() && gb.is_empty() {
        return if a.to_lowercase() == b.to_lowercase() { 1.0 } else { 0.0 };
    }
    let inter = ga.intersection(&gb).count() as f64;
    let union = ga.union(&gb).count() as f64;
    inter / union
}

/// Combined name similarity in `[0, 1]`: mean of normalized Levenshtein
/// similarity and bigram Jaccard.
pub fn name_similarity(a: &str, b: &str) -> f64 {
    let la = a.to_lowercase();
    let lb = b.to_lowercase();
    let max_len = la.chars().count().max(lb.chars().count()).max(1);
    let lev = 1.0 - levenshtein(&la, &lb) as f64 / max_len as f64;
    0.5 * lev + 0.5 * bigram_jaccard(&la, &lb)
}

/// A schema-matching instance: two schemas plus the similarity matrix.
///
/// The matrix is one flat row-major array of `f64`s beside one of
/// compatibility flags, 9 bytes a cell: a service holds one instance per
/// queued or delivered job.
#[derive(Debug, Clone)]
pub struct MatchingInstance {
    /// Source schema.
    pub source: Schema,
    /// Target schema.
    pub target: Schema,
    /// Similarity of source attribute `i` and target `j` at
    /// `i * target.len() + j`; `0.0` where the pair is incompatible.
    similarity: Vec<f64>,
    /// Whether the pair at the same position has matching types.
    compatible: Vec<bool>,
}

impl MatchingInstance {
    /// Builds an instance, computing similarities and excluding
    /// type-incompatible pairs.
    pub fn new(source: Schema, target: Schema) -> Self {
        let cells = source.len() * target.len();
        let mut similarity = Vec::with_capacity(cells);
        let mut compatible = Vec::with_capacity(cells);
        for sa in &source.attributes {
            for ta in &target.attributes {
                let ok = sa.data_type == ta.data_type;
                similarity.push(if ok { name_similarity(&sa.name, &ta.name) } else { 0.0 });
                compatible.push(ok);
            }
        }
        Self { source, target, similarity, compatible }
    }

    /// Similarity between source attribute `i` and target attribute `j`;
    /// `None` for a type-incompatible (excluded) pair.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn similarity(&self, i: usize, j: usize) -> Option<f64> {
        assert!(j < self.target.len(), "target attribute {j} out of range");
        let at = i * self.target.len() + j;
        self.compatible[at].then_some(self.similarity[at])
    }

    /// Total similarity of a matching (`matching[i] = Some(j)`), or `None`
    /// if any pair is incompatible / not one-to-one.
    pub fn score(&self, matching: &[Option<usize>]) -> Option<f64> {
        let mut used = vec![false; self.target.len()];
        let mut total = 0.0;
        for (i, m) in matching.iter().enumerate() {
            if let Some(j) = *m {
                if used[j] {
                    return None;
                }
                used[j] = true;
                total += self.similarity(i, j)?;
            }
        }
        Some(total)
    }

    /// Exact maximum-weight one-to-one matching via DP over target subsets
    /// (`O(n_source * 2^n_target)`); targets capped at 20 attributes.
    #[allow(clippy::needless_range_loop)] // bitmask DP indexes two tables in lockstep
    pub fn exact_matching(&self) -> (Vec<Option<usize>>, f64) {
        let nt = self.target.len();
        assert!(nt <= 20, "exact matching caps at 20 target attributes");
        let ns = self.source.len();
        let full = 1usize << nt;
        // dp[mask] = best score using source attrs 0..i with target set mask.
        let mut dp = vec![f64::NEG_INFINITY; full];
        let mut choice: Vec<Vec<i32>> = vec![vec![-2; full]; ns];
        dp[0] = 0.0;
        for i in 0..ns {
            let mut next = vec![f64::NEG_INFINITY; full];
            for mask in 0..full {
                if dp[mask] == f64::NEG_INFINITY {
                    continue;
                }
                // Option: leave source i unmatched.
                if dp[mask] > next[mask] {
                    next[mask] = dp[mask];
                    choice[i][mask] = -1;
                }
                // Option: match to a free compatible target.
                for j in 0..nt {
                    if mask & (1 << j) == 0 {
                        if let Some(sim) = self.similarity(i, j) {
                            let nm = mask | (1 << j);
                            let val = dp[mask] + sim;
                            if val > next[nm] {
                                next[nm] = val;
                                choice[i][nm] = j as i32;
                            }
                        }
                    }
                }
            }
            dp = next;
        }
        let (mut best_mask, mut best) = (0usize, f64::NEG_INFINITY);
        for (mask, &v) in dp.iter().enumerate() {
            if v > best {
                best = v;
                best_mask = mask;
            }
        }
        // Reconstruct.
        let mut matching = vec![None; ns];
        let mut mask = best_mask;
        for i in (0..ns).rev() {
            match choice[i][mask] {
                -1 => {}
                j if j >= 0 => {
                    matching[i] = Some(j as usize);
                    mask &= !(1usize << j);
                }
                _ => {}
            }
        }
        (matching, best)
    }

    /// Greedy baseline: repeatedly take the highest-similarity available
    /// pair above `threshold`.
    pub fn greedy_matching(&self, threshold: f64) -> (Vec<Option<usize>>, f64) {
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..self.source.len() {
            for j in 0..self.target.len() {
                if let Some(s) = self.similarity(i, j) {
                    if s >= threshold {
                        pairs.push((i, j, s));
                    }
                }
            }
        }
        pairs.sort_by(|a, b| b.2.total_cmp(&a.2));
        let mut matching = vec![None; self.source.len()];
        let mut used_t = vec![false; self.target.len()];
        let mut total = 0.0;
        for (i, j, s) in pairs {
            if matching[i].is_none() && !used_t[j] {
                matching[i] = Some(j);
                used_t[j] = true;
                total += s;
            }
        }
        (matching, total)
    }
}

/// Precision / recall of a predicted matching against ground truth.
pub fn precision_recall(predicted: &[Option<usize>], truth: &[Option<usize>]) -> (f64, f64) {
    let tp = predicted.iter().zip(truth).filter(|(p, t)| p.is_some() && p == t).count() as f64;
    let predicted_n = predicted.iter().filter(|p| p.is_some()).count() as f64;
    let truth_n = truth.iter().filter(|t| t.is_some()).count() as f64;
    let precision = if predicted_n > 0.0 { tp / predicted_n } else { 1.0 };
    let recall = if truth_n > 0.0 { tp / truth_n } else { 1.0 };
    (precision, recall)
}

/// Generates a matching benchmark: a source schema and a target derived by
/// renaming (abbreviations, prefixes, case) plus `noise` unrelated
/// attributes. Returns the instance and the ground-truth matching.
pub fn generate_benchmark(
    n_attributes: usize,
    noise: usize,
    rng: &mut impl Rng,
) -> (MatchingInstance, Vec<Option<usize>>) {
    const BASE: [(&str, DataType); 12] = [
        ("customer_id", DataType::Number),
        ("order_date", DataType::Date),
        ("total_amount", DataType::Number),
        ("email_address", DataType::Text),
        ("phone_number", DataType::Text),
        ("shipping_city", DataType::Text),
        ("product_name", DataType::Text),
        ("quantity", DataType::Number),
        ("unit_price", DataType::Number),
        ("created_at", DataType::Date),
        ("discount_rate", DataType::Number),
        ("country_code", DataType::Text),
    ];
    let n = n_attributes.min(BASE.len());
    let source = Schema::new(&BASE[..n]);
    let mut target_attrs: Vec<Attribute> = Vec::new();
    let mut truth = vec![None; n];
    for (i, (name, ty)) in BASE[..n].iter().enumerate() {
        // Rename: drop underscores, abbreviate, or prefix.
        let renamed = match rng.random_range(0..3) {
            0 => name.replace('_', ""),
            1 => format!("t_{name}"),
            _ => name.chars().filter(|c| !"aeiou_".contains(*c)).collect::<String>(),
        };
        truth[i] = Some(target_attrs.len());
        target_attrs.push(Attribute { name: renamed, data_type: *ty });
    }
    for k in 0..noise {
        target_attrs
            .push(Attribute { name: format!("unrelated_column_{k}"), data_type: DataType::Text });
    }
    let target = Schema { attributes: target_attrs };
    (MatchingInstance::new(source, target), truth)
}

/// The [`DmProblem`] wrapper for QUBO-based matching.
#[derive(Debug, Clone)]
pub struct SchemaMatchingProblem {
    /// The instance.
    pub instance: MatchingInstance,
    /// Penalty weight for the at-most-one constraints.
    pub penalty_weight: f64,
    /// Pairs below this similarity get no variable benefit (still allowed).
    pub threshold: f64,
}

impl SchemaMatchingProblem {
    /// Wraps an instance with a dominating penalty weight.
    pub fn new(instance: MatchingInstance) -> Self {
        Self { instance, penalty_weight: 4.0, threshold: 0.25 }
    }

    #[inline]
    fn var(&self, i: usize, j: usize) -> usize {
        i * self.instance.target.len() + j
    }

    /// Extracts the matching from bits; `None` on a one-to-one violation.
    pub fn matching(&self, bits: &[bool]) -> Option<Vec<Option<usize>>> {
        let ns = self.instance.source.len();
        let nt = self.instance.target.len();
        let mut matching = vec![None; ns];
        let mut used = vec![false; nt];
        for i in 0..ns {
            for j in 0..nt {
                if bits[self.var(i, j)] {
                    if matching[i].is_some() || used[j] {
                        return None;
                    }
                    matching[i] = Some(j);
                    used[j] = true;
                }
            }
        }
        Some(matching)
    }
}

impl DmProblem for SchemaMatchingProblem {
    fn name(&self) -> String {
        format!("SchemaMatching({}x{})", self.instance.source.len(), self.instance.target.len())
    }

    fn n_vars(&self) -> usize {
        self.instance.source.len() * self.instance.target.len()
    }

    fn to_qubo(&self) -> QuboModel {
        let ns = self.instance.source.len();
        let nt = self.instance.target.len();
        let mut q = QuboModel::new(ns * nt);
        for i in 0..ns {
            for j in 0..nt {
                match self.instance.similarity(i, j) {
                    // Reward above-threshold pairs; sub-threshold pairs get a
                    // small penalty so they are not chosen gratuitously.
                    Some(s) if s >= self.threshold => {
                        q.add_linear(self.var(i, j), -s);
                    }
                    Some(_) => {
                        q.add_linear(self.var(i, j), 0.1);
                    }
                    // Type-incompatible: hard exclusion.
                    None => {
                        q.add_linear(self.var(i, j), self.penalty_weight);
                    }
                }
            }
        }
        for i in 0..ns {
            let vars: Vec<usize> = (0..nt).map(|j| self.var(i, j)).collect();
            penalty::at_most_one(&mut q, &vars, self.penalty_weight);
        }
        for j in 0..nt {
            let vars: Vec<usize> = (0..ns).map(|i| self.var(i, j)).collect();
            penalty::at_most_one(&mut q, &vars, self.penalty_weight);
        }
        q.fold_couplings();
        q
    }

    fn decode(&self, bits: &[bool]) -> Decoded {
        match self.matching(bits).and_then(|m| {
            let score = self.instance.score(&m)?;
            Some((m, score))
        }) {
            Some((m, score)) => Decoded {
                feasible: true,
                // DmProblem minimizes; similarity is a reward.
                objective: -score,
                summary: format!("{m:?}"),
            },
            None => Decoded {
                feasible: false,
                objective: f64::INFINITY,
                summary: "not a one-to-one compatible matching".into(),
            },
        }
    }

    fn repair(&self, bits: &[bool]) -> Vec<bool> {
        // Keep selected pairs sorted by similarity, dropping violators.
        let ns = self.instance.source.len();
        let nt = self.instance.target.len();
        let mut selected: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..ns {
            for j in 0..nt {
                if bits[self.var(i, j)] {
                    if let Some(s) = self.instance.similarity(i, j) {
                        selected.push((i, j, s));
                    }
                }
            }
        }
        selected.sort_by(|a, b| b.2.total_cmp(&a.2));
        let mut out = vec![false; ns * nt];
        let mut used_s = vec![false; ns];
        let mut used_t = vec![false; nt];
        for (i, j, _) in selected {
            if !used_s[i] && !used_t[j] {
                used_s[i] = true;
                used_t[j] = true;
                out[self.var(i, j)] = true;
            }
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

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn similarity_ranks_related_names_higher() {
        let same = name_similarity("customer_id", "customerid");
        let related = name_similarity("customer_id", "cstmr_d");
        let unrelated = name_similarity("customer_id", "shipping_city");
        assert!(same > related, "{same} vs {related}");
        assert!(related > unrelated, "{related} vs {unrelated}");
    }

    #[test]
    fn similarity_matrix_is_row_major_by_source_attribute() {
        let source = Schema::new(&[("id", DataType::Number), ("name", DataType::Text)]);
        let target = Schema::new(&[
            ("name", DataType::Text),
            ("ident", DataType::Number),
            ("label", DataType::Text),
        ]);
        let inst = MatchingInstance::new(source.clone(), target.clone());
        for (i, sa) in source.attributes.iter().enumerate() {
            for (j, ta) in target.attributes.iter().enumerate() {
                let want =
                    (sa.data_type == ta.data_type).then(|| name_similarity(&sa.name, &ta.name));
                assert_eq!(inst.similarity(i, j), want, "({i}, {j})");
            }
        }
    }

    #[test]
    fn exact_matching_on_tiny_instance() {
        let source = Schema::new(&[("id", DataType::Number), ("name", DataType::Text)]);
        let target = Schema::new(&[("name", DataType::Text), ("id", DataType::Number)]);
        let inst = MatchingInstance::new(source, target);
        let (m, score) = inst.exact_matching();
        assert_eq!(m, vec![Some(1), Some(0)]);
        assert!((score - 2.0).abs() < 1e-9);
    }

    #[test]
    fn type_incompatible_pairs_are_excluded() {
        let source = Schema::new(&[("amount", DataType::Number)]);
        let target = Schema::new(&[("amount", DataType::Text)]);
        let inst = MatchingInstance::new(source, target);
        assert!(inst.similarity(0, 0).is_none());
        let (m, score) = inst.exact_matching();
        assert_eq!(m, vec![None]);
        assert_eq!(score, 0.0);
    }

    #[test]
    fn qubo_optimum_matches_exact_dp() {
        let mut rng = StdRng::seed_from_u64(11);
        let (inst, _) = generate_benchmark(4, 1, &mut rng);
        let (_, dp_score) = inst.exact_matching();
        let problem = SchemaMatchingProblem::new(inst);
        let res = solve_exact(&problem.to_qubo());
        let decoded = problem.decode(&res.bits);
        assert!(decoded.feasible);
        // QUBO maximizes thresholded similarity; it can at most match DP.
        assert!(
            -decoded.objective <= dp_score + 1e-9,
            "qubo score {} vs dp {dp_score}",
            -decoded.objective
        );
        // And it should recover most of it.
        assert!(-decoded.objective >= 0.7 * dp_score, "qubo too weak");
    }

    #[test]
    fn benchmark_ground_truth_is_recoverable() {
        let mut rng = StdRng::seed_from_u64(3);
        let (inst, truth) = generate_benchmark(6, 2, &mut rng);
        let (pred, _) = inst.exact_matching();
        let (precision, recall) = precision_recall(&pred, &truth);
        assert!(precision >= 0.6, "precision {precision}");
        assert!(recall >= 0.6, "recall {recall}");
    }

    #[test]
    fn repair_produces_feasible_matchings() {
        let mut rng = StdRng::seed_from_u64(7);
        let (inst, _) = generate_benchmark(4, 0, &mut rng);
        let problem = SchemaMatchingProblem::new(inst);
        let all = vec![true; problem.n_vars()];
        let repaired = problem.repair(&all);
        assert!(problem.decode(&repaired).feasible);
    }

    #[test]
    fn precision_recall_edge_cases() {
        assert_eq!(precision_recall(&[None], &[None]), (1.0, 1.0));
        assert_eq!(precision_recall(&[Some(0)], &[Some(0)]), (1.0, 1.0));
        let (p, r) = precision_recall(&[Some(1), None], &[Some(0), Some(1)]);
        assert_eq!(p, 0.0);
        assert_eq!(r, 0.0);
    }
}
