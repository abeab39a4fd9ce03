//! Build-once, flat CSR compilation of a [`QuboModel`] for solver hot loops.
//!
//! Every workload in the paper's Table I — join ordering, MQO, transaction
//! scheduling — bottoms out in repeated QUBO energy and flip-delta
//! evaluations. [`QuboModel`] stores its couplings in one flat array sorted
//! by `(i, j)`, which is the right structure for append-only construction
//! and canonical fingerprinting but a poor one for the millions of
//! evaluations a single annealing run performs: every energy scans all `m`
//! couplings whatever the assignment, and every generic
//! [`QuboModel::flip_delta`] scans all `m` couplings for one variable's row.
//!
//! [`CompiledQubo`] is the solver-facing form: one [`QuboModel::compile`]
//! call flattens the model into CSR adjacency — a row-offset array plus
//! parallel neighbor/weight slices, both laid out contiguously — alongside a
//! dense linear-coefficient array, the constant offset, and degree
//! statistics. On it, `energy` is a linear scan over two flat arrays,
//! `flip_delta` is `O(deg(i))`, and [`CompiledQubo::local_fields`] seeds the
//! incremental bookkeeping every annealer in `qdm-anneal` uses.
//!
//! Floating-point note: all sums here visit coefficients in exactly the
//! order [`QuboModel`]'s own methods do (linear terms by index, couplings in
//! sorted `(i, j)` order, per-row neighbors ascending), so compiled results
//! are bit-identical to the model-backed slow path, not merely close. The
//! sums over a random assignment add `w` or `-0.0` chosen by bitmask rather
//! than branching on each bit: `a + (-0.0)` is `a` for every `a`, `+0.0`
//! included, so they keep the bits of the branchy sum (a `+0.0` or `w·bit`
//! select would not: `-0.0 + 0.0` is `+0.0`).

use crate::model::{f64_bits, mix, pair_word, QuboModel, FINGERPRINT_SEED};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`CompiledQubo`] constructions.
///
/// This is the compile-once observability hook: `qdm-runtime` compiles each
/// cache-miss job exactly once and shares the compilation between presolve
/// and the backend that solves it, and its tests assert
/// that invariant by diffing this counter around a solve. A relaxed atomic
/// increment per compilation is far below measurement noise.
static COMPILATIONS: AtomicU64 = AtomicU64::new(0);

/// Total number of [`CompiledQubo`] constructions in this process so far.
/// Intended for tests and benchmarks asserting compile-once behavior, not
/// for application logic.
pub fn compilation_count() -> u64 {
    COMPILATIONS.load(Ordering::Relaxed)
}

/// A [`QuboModel`] compiled to flat CSR form for fast repeated evaluation.
///
/// Construction is `O(n + m)`; the representation is immutable. See the
/// [module docs](self) for why solvers use this instead of the model.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQubo {
    n_vars: usize,
    offset: f64,
    /// Dense linear coefficients, indexed by variable.
    linear: Vec<f64>,
    /// CSR row offsets: variable `i`'s neighbors live at
    /// `neighbors[row_offsets[i]..row_offsets[i + 1]]`.
    row_offsets: Vec<usize>,
    /// Neighbor indices, ascending within each row (`u32` keeps the array
    /// half the size of `usize` on 64-bit targets — better cache density).
    neighbors: Vec<u32>,
    /// Coupling weights, parallel to `neighbors`.
    weights: Vec<f64>,
    /// Absolute index where row `i`'s `j > i` suffix begins (rows are
    /// ascending, so the upper-triangular half of each row is contiguous).
    /// Lets [`Self::energy`] visit every coupling exactly once instead of
    /// scanning both symmetric halves.
    upper_starts: Vec<usize>,
    /// Largest row degree.
    max_degree: usize,
}

/// Builds symmetric CSR adjacency arrays — `(row_offsets, neighbors,
/// weights)` — from an edge stream of upper-triangular `((i, j), w)` pairs
/// with sorted keys (what [`QuboModel::quadratic_iter`] and the Ising
/// model's `couplings_iter` both yield). `edges` is called twice: once to
/// count degrees, once to place entries. Sorted input makes every row's
/// neighbor list ascending without a sort pass.
///
/// # Panics
/// Panics if `n_vars` exceeds `u32::MAX` (the CSR index width).
pub fn build_symmetric_csr<I>(
    n_vars: usize,
    edges: impl Fn() -> I,
) -> (Vec<usize>, Vec<u32>, Vec<f64>)
where
    I: Iterator<Item = ((usize, usize), f64)>,
{
    assert!(n_vars <= u32::MAX as usize, "{n_vars} variables exceeds CSR index width");
    // Degree count, then prefix-sum into row offsets, then a placement
    // pass: the classic two-pass CSR build, no per-row Vec allocations.
    let mut row_offsets = vec![0usize; n_vars + 1];
    for ((i, j), _) in edges() {
        row_offsets[i + 1] += 1;
        row_offsets[j + 1] += 1;
    }
    for i in 0..n_vars {
        row_offsets[i + 1] += row_offsets[i];
    }
    let nnz = row_offsets[n_vars];
    let mut neighbors = vec![0u32; nnz];
    let mut weights = vec![0.0f64; nnz];
    let mut cursor = row_offsets[..n_vars].to_vec();
    for ((i, j), w) in edges() {
        neighbors[cursor[i]] = j as u32;
        weights[cursor[i]] = w;
        cursor[i] += 1;
        neighbors[cursor[j]] = i as u32;
        weights[cursor[j]] = w;
        cursor[j] += 1;
    }
    (row_offsets, neighbors, weights)
}

/// The canonical-relabeling algorithm behind both
/// [`QuboModel::canonical_form`] and [`CompiledQubo::canonical_form`],
/// expressed over raw symmetric CSR arrays (what [`build_symmetric_csr`]
/// returns) so callers can canonicalize a model *without* constructing a
/// `CompiledQubo` — the [`compilation_count`] ledger stays untouched.
/// Returns `(fingerprint, perm)` with `perm[original_index] =
/// canonical_index`.
///
/// Variables are sorted by a coefficient signature — a hash of the linear
/// term, refined twice by folding in a commutative multiset hash of the
/// row (the wrapping sum of `mix(coupling weight, neighbor signature)`), a
/// Weisfeiler-Lehman-style pass with no per-row sort — with ties broken by
/// original index. The relabeled coefficient stream is then hashed exactly
/// as [`QuboModel::fingerprint`] would hash the relabeled model, without
/// materializing it.
pub fn canonical_form_csr(
    n_vars: usize,
    offset: f64,
    linear: &[f64],
    row_offsets: &[usize],
    neighbors: &[u32],
    weights: &[f64],
) -> (u64, Vec<usize>) {
    // Weisfeiler-Lehman-style signature refinement: seed each variable
    // with its linear coefficient, then twice fold in the multiset of
    // (coupling weight, neighbor signature) pairs. The wrapping sum makes
    // the multiset hash order-free, so rows need no sort; `next` is the
    // one scratch buffer, swapped with `sig` each round.
    let mut sig: Vec<u64> = linear.iter().map(|&w| mix(FINGERPRINT_SEED, f64_bits(w))).collect();
    let mut next = vec![0u64; n_vars];
    for _round in 0..2 {
        for (i, out) in next.iter_mut().enumerate() {
            let span = row_offsets[i]..row_offsets[i + 1];
            let multiset = neighbors[span.clone()]
                .iter()
                .zip(&weights[span])
                .fold(0u64, |acc, (&j, &w)| acc.wrapping_add(mix(f64_bits(w), sig[j as usize])));
            *out = mix(sig[i], multiset);
        }
        std::mem::swap(&mut sig, &mut next);
    }

    // `(signature, index)` pairs are unique, so the unstable sort is
    // deterministic.
    let mut order: Vec<(u64, u32)> = sig.iter().zip(0u32..).map(|(&s, i)| (s, i)).collect();
    order.sort_unstable();
    let mut perm = vec![0usize; n_vars];
    for (canonical, &(_, original)) in order.iter().enumerate() {
        perm[original as usize] = canonical;
    }

    // Hash the relabeled coefficient stream in `QuboModel::fingerprint`'s
    // exact word order — variable count, linear terms by canonical
    // index, couplings by sorted canonical key, offset — without
    // building the relabeled model. Canonical row `a` is the original row
    // `order[a]`; its couplings to canonical indices `b > a` are gathered
    // into one reused buffer and sorted by `b`, so sorted `(a, b)` order
    // costs a per-row sort of at most `max_degree` entries instead of one
    // sort over all couplings.
    let mut h = mix(FINGERPRINT_SEED, n_vars as u64);
    for &(_, original) in &order {
        h = mix(h, f64_bits(linear[original as usize]));
    }
    let mut row: Vec<(u32, u64)> = Vec::new();
    for (a, &(_, i)) in order.iter().enumerate() {
        let span = row_offsets[i as usize]..row_offsets[i as usize + 1];
        row.clear();
        for (&j, &w) in neighbors[span.clone()].iter().zip(&weights[span]) {
            let b = perm[j as usize];
            if b > a {
                row.push((b as u32, f64_bits(w)));
            }
        }
        row.sort_unstable_by_key(|&(b, _)| b);
        for &(b, w) in &row {
            h = mix(mix(h, pair_word(a, b as usize)), w);
        }
    }
    (mix(h, f64_bits(offset)), perm)
}

impl CompiledQubo {
    /// Compiles a model. Prefer calling [`QuboModel::compile`].
    ///
    /// # Panics
    /// Panics if the model has more than `u32::MAX` variables (far beyond
    /// anything the dense `linear` array could hold anyway).
    pub fn new(q: &QuboModel) -> Self {
        let n = q.n_vars();
        let (row_offsets, neighbors, weights) = build_symmetric_csr(n, || q.quadratic_iter());
        let max_degree = (0..n).map(|i| row_offsets[i + 1] - row_offsets[i]).max().unwrap_or(0);
        let upper_starts = (0..n)
            .map(|i| {
                let row = &neighbors[row_offsets[i]..row_offsets[i + 1]];
                row_offsets[i] + row.partition_point(|&j| (j as usize) < i)
            })
            .collect();
        COMPILATIONS.fetch_add(1, Ordering::Relaxed);
        Self {
            n_vars: n,
            offset: q.offset(),
            linear: (0..n).map(|i| q.linear(i)).collect(),
            row_offsets,
            neighbors,
            weights,
            upper_starts,
            max_degree,
        }
    }

    /// Number of binary variables.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Constant offset added to every energy.
    #[inline]
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Linear coefficient of variable `i`.
    #[inline]
    pub fn linear(&self, i: usize) -> f64 {
        self.linear[i]
    }

    /// Number of non-zero quadratic couplings (each counted once).
    #[inline]
    pub fn n_interactions(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of variable `i` in the interaction graph.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.row_offsets[i + 1] - self.row_offsets[i]
    }

    /// Largest degree across all variables.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Mean degree (0 for an empty model).
    pub fn avg_degree(&self) -> f64 {
        if self.n_vars == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.n_vars as f64
        }
    }

    /// Variable `i`'s CSR row: `(neighbor indices, weights)`, parallel
    /// slices with neighbors ascending.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_offsets[i]..self.row_offsets[i + 1];
        (&self.neighbors[span.clone()], &self.weights[span])
    }

    /// Evaluates the energy of a binary assignment. Bit-identical to
    /// [`QuboModel::energy`] on the source model.
    ///
    /// # Panics
    /// Panics if `x.len() != n_vars`.
    pub fn energy(&self, x: &[bool]) -> f64 {
        assert_eq!(x.len(), self.n_vars, "assignment length mismatch");
        let mut e = self.offset;
        for (&w, &xi) in self.linear.iter().zip(x) {
            e += if_active(xi, w);
        }
        // Each coupling appears in both endpoint rows; walking only the
        // precomputed `j > i` suffix of each row visits every pair exactly
        // once — half the memory traffic — in the same sorted (i, j) order
        // the model's coupling array holds.
        for (i, &xi) in x.iter().enumerate() {
            if !xi {
                continue;
            }
            let span = self.upper_starts[i]..self.row_offsets[i + 1];
            for (&j, &w) in self.neighbors[span.clone()].iter().zip(&self.weights[span]) {
                e += if_active(x[j as usize], w);
            }
        }
        e
    }

    /// Energy change from flipping variable `i` in assignment `x` (`x` is
    /// the state *before* the flip). `O(deg(i))`.
    #[inline]
    pub fn flip_delta(&self, x: &[bool], i: usize) -> f64 {
        let mut local = self.linear[i];
        let (nbrs, ws) = self.row(i);
        for (&j, &w) in nbrs.iter().zip(ws) {
            if x[j as usize] {
                local += w;
            }
        }
        if x[i] {
            -local
        } else {
            local
        }
    }

    /// Local fields for every variable under assignment `x`:
    /// `fields[i] = linear[i] + sum of weights to active neighbors`, so the
    /// flip delta of `i` is `fields[i]` when `x[i]` is 0 and `-fields[i]`
    /// when it is 1. This is the initializer for the incremental `O(deg)`
    /// bookkeeping in every annealer hot loop.
    pub fn local_fields(&self, x: &[bool]) -> Vec<f64> {
        let mut fields = vec![0.0f64; self.n_vars];
        self.local_fields_into(x, &mut fields);
        fields
    }

    /// [`Self::local_fields`] into a caller-owned buffer, reusing its
    /// allocation across restarts.
    ///
    /// # Panics
    /// Panics if `fields.len() != n_vars` or `x.len() != n_vars`.
    pub fn local_fields_into(&self, x: &[bool], fields: &mut [f64]) {
        assert_eq!(fields.len(), self.n_vars, "field buffer length mismatch");
        assert_eq!(x.len(), self.n_vars, "assignment length mismatch");
        let rows = self.row_offsets.windows(2);
        for ((field, &linear), row) in fields.iter_mut().zip(&self.linear).zip(rows) {
            let span = row[0]..row[1];
            let mut f = linear;
            for (&j, &w) in self.neighbors[span.clone()].iter().zip(&self.weights[span]) {
                f += if_active(x[j as usize], w);
            }
            *field = f;
        }
    }

    /// CSR row-offset array: variable `i`'s neighbors span
    /// `neighbors()[row_offsets()[i]..row_offsets()[i + 1]]`.
    #[inline]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// Flat neighbor-index array, parallel to [`Self::weights`].
    #[inline]
    pub fn neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Flat coupling-weight array, parallel to [`Self::neighbors`].
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Iterates the upper-triangular couplings as `((i, j), w)` with
    /// `i < j`, in exactly the sorted key order
    /// [`QuboModel::quadratic_iter`] yields — so float accumulations driven
    /// by this iterator are bit-identical to model-driven ones.
    pub fn couplings_iter(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        (0..self.n_vars).flat_map(move |i| {
            let span = self.upper_starts[i]..self.row_offsets[i + 1];
            self.neighbors[span.clone()]
                .iter()
                .zip(&self.weights[span])
                .map(move |(&j, &w)| ((i, j as usize), w))
        })
    }

    /// Reconstructs the source [`QuboModel`]. Compilation is lossless, so
    /// the result is coefficient-identical (`==`) to the compiled model;
    /// gate-based solvers that need the model form (energy tables,
    /// Hamiltonian construction) use this to serve `solve_compiled` calls.
    pub fn to_model(&self) -> QuboModel {
        let mut q = QuboModel::new(self.n_vars);
        q.add_offset(self.offset);
        for (i, &w) in self.linear.iter().enumerate() {
            q.add_linear(i, w);
        }
        for ((i, j), w) in self.couplings_iter() {
            q.add_quadratic(i, j, w);
        }
        q
    }

    /// Maximum absolute coefficient, matching
    /// [`QuboModel::max_abs_coefficient`] exactly (`max` is
    /// order-insensitive). Used by parameter-scaling heuristics.
    pub fn max_abs_coefficient(&self) -> f64 {
        let l = self.linear.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        let q = self.weights.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        l.max(q)
    }

    /// A lower bound on the energy: offset plus all negative coefficients.
    /// Visits terms in the same order as [`QuboModel::naive_lower_bound`]
    /// (linear by index, couplings by sorted key), so the sum is
    /// bit-identical to the model's.
    pub fn naive_lower_bound(&self) -> f64 {
        let mut b = self.offset;
        b += self.linear.iter().filter(|w| **w < 0.0).sum::<f64>();
        b += self.couplings_iter().map(|(_, w)| w).filter(|w| *w < 0.0).sum::<f64>();
        b
    }

    /// Applies the flip of variable `i` to the incremental state: toggles
    /// `x[i]` and folds the coupling weights into the neighbors' local
    /// fields. Returns the energy delta the flip contributed (callers track
    /// the running energy themselves from [`Self::flip_delta`]-style reads
    /// of `fields[i]` before the flip).
    ///
    /// The sign is chosen once per flip, not per neighbor: a set bit runs a
    /// `-= w` loop and a clear one a `+= w` loop, and `a - w` is
    /// bit-identical to `a + (-1.0·w)`.
    ///
    /// # Panics
    /// Panics if `fields.len() != n_vars` or `i` is out of range.
    #[inline]
    pub fn apply_flip(&self, x: &mut [bool], fields: &mut [f64], i: usize) -> f64 {
        assert_eq!(fields.len(), self.n_vars, "field buffer length mismatch");
        let was_set = x[i];
        let delta = if was_set { -fields[i] } else { fields[i] };
        x[i] = !was_set;
        let (nbrs, ws) = self.row(i);
        // SAFETY: every neighbor index is below `n_vars`. `Self::new` is the
        // only constructor, and `build_symmetric_csr` indexes
        // `row_offsets[j + 1]` (length `n_vars + 1`) for both endpoints of
        // every coupling it places, so an index `>= n_vars` panics there
        // before it can reach `neighbors`, which is never mutated after.
        // `fields.len() == n_vars` is asserted above.
        if was_set {
            for (&j, &w) in nbrs.iter().zip(ws) {
                unsafe { *fields.get_unchecked_mut(j as usize) -= w };
            }
        } else {
            for (&j, &w) in nbrs.iter().zip(ws) {
                unsafe { *fields.get_unchecked_mut(j as usize) += w };
            }
        }
        delta
    }

    /// Computes the canonical relabeling and permutation-invariant
    /// fingerprint of the compiled model: returns `(fingerprint, perm)` with
    /// `perm[original_index] = canonical_index`, exactly as
    /// [`QuboModel::canonical_form`] does (both run the same CSR-level
    /// algorithm, [`canonical_form_csr`]).
    ///
    /// Having this on the compiled form lets a caller that already holds a
    /// compilation fingerprint it without building the CSR arrays again.
    pub fn canonical_form(&self) -> (u64, Vec<usize>) {
        canonical_form_csr(
            self.n_vars,
            self.offset,
            &self.linear,
            &self.row_offsets,
            &self.neighbors,
            &self.weights,
        )
    }

    /// Greedy graph coloring of the interaction graph in ascending variable
    /// order: variables sharing a color are pairwise non-adjacent, so one
    /// annealing sweep can evaluate (and flip) a whole color class
    /// concurrently — the within-restart parallelism axis
    /// `qdm_anneal::sa::simulated_annealing_colored` runs on.
    ///
    /// Uses at most `max_degree + 1` colors. Deterministic: depends only on
    /// the compiled structure.
    pub fn greedy_coloring(&self) -> Coloring {
        let n = self.n_vars;
        let mut color = vec![usize::MAX; n];
        // `forbidden[c] == i` marks color c as used by a neighbor of i; the
        // stamp trick avoids clearing the array between variables.
        let mut forbidden = vec![usize::MAX; self.max_degree + 2];
        let mut n_colors = 0usize;
        for i in 0..n {
            let (nbrs, _) = self.row(i);
            for &j in nbrs {
                let cj = color[j as usize];
                if cj != usize::MAX && cj < forbidden.len() {
                    forbidden[cj] = i;
                }
            }
            let c = (0..forbidden.len()).find(|&c| forbidden[c] != i).expect("degree+2 colors");
            color[i] = c;
            n_colors = n_colors.max(c + 1);
        }
        let mut classes: Vec<Vec<u32>> = vec![Vec::new(); n_colors];
        for (i, &c) in color.iter().enumerate() {
            classes[c].push(i as u32);
        }
        Coloring { classes }
    }
}

/// `w` when `active`, else `-0.0`, selected by bitmask so the sums over a
/// random assignment compile without a branch on each bit. Adding `-0.0`
/// is the IEEE identity (see the [module docs](self)).
#[inline(always)]
fn if_active(active: bool, w: f64) -> f64 {
    let mask = u64::from(active).wrapping_neg();
    f64::from_bits((w.to_bits() & mask) | ((-0.0f64).to_bits() & !mask))
}

/// A partition of the variables into independence classes (see
/// [`CompiledQubo::greedy_coloring`]): within a class no two variables are
/// coupled, so their flip deltas are mutually independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// `classes[c]` holds the ascending variable indices with color `c`.
    pub classes: Vec<Vec<u32>>,
}

impl Coloring {
    /// Number of colors used.
    pub fn n_colors(&self) -> usize {
        self.classes.len()
    }

    /// Size of the largest color class.
    pub fn max_class_len(&self) -> usize {
        self.classes.iter().map(Vec::len).max().unwrap_or(0)
    }
}

impl QuboModel {
    /// Compiles the model into the flat CSR form solver hot loops run on.
    /// `O(n + m)`; see [`CompiledQubo`].
    pub fn compile(&self) -> CompiledQubo {
        CompiledQubo::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::bits_from_index;

    fn sample_model() -> QuboModel {
        let mut q = QuboModel::new(5);
        q.add_linear(0, 1.5)
            .add_linear(2, -2.0)
            .add_quadratic(0, 1, 2.0)
            .add_quadratic(1, 2, -1.0)
            .add_quadratic(0, 3, 0.75)
            .add_quadratic(3, 4, -0.5)
            .add_offset(0.25);
        q
    }

    #[test]
    fn energy_matches_model_exhaustively() {
        let q = sample_model();
        let c = q.compile();
        for idx in 0..(1 << 5) {
            let x = bits_from_index(idx, 5);
            assert_eq!(c.energy(&x), q.energy(&x), "index {idx}");
        }
    }

    #[test]
    fn flip_delta_matches_model_and_energy_difference() {
        let q = sample_model();
        let c = q.compile();
        let x = [true, false, true, true, false];
        for i in 0..5 {
            let mut y = x;
            y[i] = !y[i];
            let want = q.energy(&y) - q.energy(&x);
            assert!((c.flip_delta(&x, i) - want).abs() < 1e-12, "var {i}");
            assert_eq!(c.flip_delta(&x, i), q.flip_delta(&x, i), "var {i}");
        }
    }

    #[test]
    fn csr_rows_are_sorted_and_symmetric() {
        let c = sample_model().compile();
        assert_eq!(c.row(0), (&[1u32, 3][..], &[2.0, 0.75][..]));
        assert_eq!(c.row(1), (&[0u32, 2][..], &[2.0, -1.0][..]));
        assert_eq!(c.row(2), (&[1u32][..], &[-1.0][..]));
        assert_eq!(c.row(4), (&[3u32][..], &[-0.5][..]));
    }

    #[test]
    fn degree_stats() {
        let c = sample_model().compile();
        assert_eq!(c.n_vars(), 5);
        assert_eq!(c.n_interactions(), 4);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(4), 1);
        assert_eq!(c.max_degree(), 2);
        assert!((c.avg_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn local_fields_seed_incremental_bookkeeping() {
        let q = sample_model();
        let c = q.compile();
        let x = [true, true, false, false, true];
        let fields = c.local_fields(&x);
        for i in 0..5 {
            let want = if x[i] { -q.flip_delta(&x, i) } else { q.flip_delta(&x, i) };
            assert!((fields[i] - want).abs() < 1e-12, "var {i}");
        }
    }

    /// The branchy sums the bitmask selects replaced: `energy`,
    /// `local_fields` and one `apply_flip` as they read before.
    fn branchy_energy(c: &CompiledQubo, x: &[bool]) -> f64 {
        let mut e = c.offset;
        for (&w, &xi) in c.linear.iter().zip(x) {
            if xi {
                e += w;
            }
        }
        for i in (0..c.n_vars).filter(|&i| x[i]) {
            for k in c.upper_starts[i]..c.row_offsets[i + 1] {
                if x[c.neighbors[k] as usize] {
                    e += c.weights[k];
                }
            }
        }
        e
    }

    fn branchy_fields(c: &CompiledQubo, x: &[bool]) -> Vec<f64> {
        (0..c.n_vars)
            .map(|i| {
                let mut f = c.linear[i];
                let (nbrs, ws) = c.row(i);
                for (&j, &w) in nbrs.iter().zip(ws) {
                    if x[j as usize] {
                        f += w;
                    }
                }
                f
            })
            .collect()
    }

    fn branchy_flip(c: &CompiledQubo, x: &mut [bool], fields: &mut [f64], i: usize) -> f64 {
        let delta = if x[i] { -fields[i] } else { fields[i] };
        let sign = if x[i] { -1.0 } else { 1.0 };
        x[i] = !x[i];
        let (nbrs, ws) = c.row(i);
        for (&j, &w) in nbrs.iter().zip(ws) {
            fields[j as usize] += sign * w;
        }
        delta
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn branch_free_sums_keep_the_bits_of_the_branchy_ones() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Signed zeros survive: with a `-0.0` offset and linear terms, an
        // assignment whose active variables have no active neighbor sums
        // to `-0.0`, which a `+0.0` select would turn into `+0.0`.
        let mut c = sample_model().compile();
        c.offset = -0.0;
        c.linear.fill(-0.0);
        for x in [[false; 5], [false, false, true, true, false]] {
            assert_eq!(c.energy(&x).to_bits(), (-0.0f64).to_bits(), "{x:?}");
            assert_eq!(c.energy(&x).to_bits(), branchy_energy(&c, &x).to_bits());
        }
        let x = [false; 5];
        assert_eq!(bits(&c.local_fields(&x)), bits(&[-0.0; 5]));

        // Random models and assignments, then a random flip sequence: every
        // energy, field and flip delta matches the branchy sum bit for bit.
        let mut rng = StdRng::seed_from_u64(29);
        for n in [1usize, 7, 40, 130] {
            let mut q = QuboModel::new(n);
            q.add_offset(rng.random_range(-2.0..2.0));
            for i in 0..n {
                q.add_linear(i, rng.random_range(-3.0..3.0));
                for j in (i + 1)..n {
                    if rng.random::<f64>() < 0.2 {
                        q.add_quadratic(i, j, rng.random_range(-2.0..2.0));
                    }
                }
            }
            let c = q.compile();
            let mut x: Vec<bool> = (0..n).map(|_| rng.random()).collect();
            assert_eq!(c.energy(&x).to_bits(), branchy_energy(&c, &x).to_bits(), "n {n}");
            let mut fields = c.local_fields(&x);
            assert_eq!(bits(&fields), bits(&branchy_fields(&c, &x)), "n {n}");
            let mut want_x = x.clone();
            let mut want_fields = fields.clone();
            for _ in 0..4 * n {
                let i = rng.random_range(0..n);
                let got = c.apply_flip(&mut x, &mut fields, i);
                let want = branchy_flip(&c, &mut want_x, &mut want_fields, i);
                assert_eq!(got.to_bits(), want.to_bits(), "n {n}, flip {i}");
                assert_eq!(bits(&fields), bits(&want_fields), "n {n}, flip {i}");
            }
            assert_eq!(x, want_x);
        }
    }

    #[test]
    fn apply_flip_keeps_fields_and_energy_consistent() {
        let q = sample_model();
        let c = q.compile();
        let mut x = vec![false, true, true, false, true];
        let mut fields = c.local_fields(&x);
        let mut energy = c.energy(&x);
        for &i in &[0usize, 2, 4, 2, 1, 0, 3] {
            energy += c.apply_flip(&mut x, &mut fields, i);
            assert!((energy - c.energy(&x)).abs() < 1e-9, "after flipping {i}");
            let fresh = c.local_fields(&x);
            for v in 0..5 {
                assert!((fields[v] - fresh[v]).abs() < 1e-9, "field {v} after flip {i}");
            }
        }
    }

    #[test]
    fn to_model_roundtrips_exactly() {
        let q = sample_model();
        assert_eq!(q.compile().to_model(), q);
        let empty = QuboModel::new(0);
        assert_eq!(empty.compile().to_model(), empty);
    }

    #[test]
    fn derived_scalars_match_model() {
        let q = sample_model();
        let c = q.compile();
        assert_eq!(c.max_abs_coefficient(), q.max_abs_coefficient());
        assert_eq!(c.naive_lower_bound().to_bits(), q.naive_lower_bound().to_bits());
        let pairs: Vec<_> = c.couplings_iter().collect();
        let want: Vec<_> = q.quadratic_iter().collect();
        assert_eq!(pairs, want, "couplings_iter must match the model's sorted key order");
    }

    #[test]
    fn canonical_form_matches_model_delegation() {
        let q = sample_model();
        let c = q.compile();
        assert_eq!(c.canonical_form(), q.canonical_form());
    }

    #[test]
    fn greedy_coloring_is_a_proper_partition() {
        let q = sample_model();
        let c = q.compile();
        let coloring = c.greedy_coloring();
        // Every variable appears exactly once.
        let mut seen = vec![0usize; c.n_vars()];
        for class in &coloring.classes {
            for &i in class {
                seen[i as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "classes must partition the variables");
        // No class contains an adjacent pair.
        for class in &coloring.classes {
            for &i in class {
                let (nbrs, _) = c.row(i as usize);
                for &j in nbrs {
                    assert!(!class.contains(&j), "vars {i} and {j} are coupled but share a color");
                }
            }
        }
        assert!(coloring.n_colors() <= c.max_degree() + 1);
        assert!(coloring.max_class_len() >= 1);
    }

    #[test]
    fn compilation_counter_increments() {
        let before = compilation_count();
        let _ = sample_model().compile();
        assert!(compilation_count() > before);
    }

    #[test]
    fn empty_and_coupling_free_models_compile() {
        let empty = QuboModel::new(0).compile();
        assert_eq!(empty.energy(&[]), 0.0);
        assert_eq!(empty.max_degree(), 0);

        let mut lin = QuboModel::new(3);
        lin.add_linear(1, -2.0).add_offset(1.0);
        let c = lin.compile();
        assert_eq!(c.energy(&[false, true, false]), -1.0);
        assert_eq!(c.n_interactions(), 0);
        assert_eq!(c.flip_delta(&[false, false, false], 1), -2.0);
    }
}
