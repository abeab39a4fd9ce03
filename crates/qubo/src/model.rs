//! The QUBO model: `E(x) = x^T Q x + offset` over binary variables.
//!
//! QUBO (quadratic unconstrained binary optimization) is, per Sec. III of the
//! paper, "one of the most widely applied optimization models" for quantum
//! computing: every Table I work maps its database problem onto one. We store
//! the coefficient matrix sparsely in upper-triangular form: `linear[i]`
//! holds `Q_ii`, and one flat coupling array holds `Q_ij + Q_ji` for each
//! `i < j`, keyed by the packed pair word `i << 32 | j`.
//!
//! Encoders add every coupling once, so the array is built append-only: each
//! `add_quadratic` pushes `(key, w)`, and the first read *folds* the pending
//! adds with one stable sort by key, summing each key's weights in call
//! order and dropping zero sums. That yields exactly the values, order and
//! pruning a sorted map updated add by add would hold, so every reader walks
//! one sorted slice. A write after a read sorts only the new tail and merges it into the
//! folded prefix.

use serde::{Deserialize, Serialize};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// A quadratic unconstrained binary optimization model.
///
/// Energy of an assignment `x in {0,1}^n`:
/// `E(x) = sum_i linear[i] x_i + sum_{i<j} quadratic[(i,j)] x_i x_j + offset`.
///
/// Couplings live in one flat array (see the [module docs](self)); reads
/// take `&self` and fold pending adds on demand, so a model shared across
/// threads stays `Sync`. [`Self::fold_couplings`] moves that one-time cost
/// to the builder.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuboModel {
    n_vars: usize,
    linear: Vec<f64>,
    quadratic: Couplings,
    offset: f64,
}

/// The flat coupling store behind [`QuboModel`]. Writes go through
/// `&mut self` and never lock. Reads share the lock; the first read after
/// a write takes it exclusively once to fold. A reader's guard always sees
/// a folded log, but a fold can still wait on a reader's guard: a thread
/// that saw the log unfolded may reach the write lock only after another
/// thread has folded it and taken a guard. A waiting fold also blocks new
/// readers, so a caller holding a guard (e.g. inside a live
/// `quadratic_iter`) must not read the same model again (`quadratic_iter`,
/// `quadratic`, `==`, ...) until it drops the guard.
#[derive(Default)]
struct Couplings(RwLock<CouplingLog>);

/// `(pair_word(i, j), w)` entries with `i < j`: a folded prefix
/// `entries[..folded_len]` (strictly ascending keys, no zero weights)
/// followed by the adds since, in call order.
#[derive(Default)]
struct CouplingLog {
    entries: Vec<(u64, f64)>,
    folded_len: usize,
}

impl Couplings {
    /// A store holding an already-folded array.
    fn from_folded(entries: Vec<(u64, f64)>) -> Self {
        let folded_len = entries.len();
        Self(RwLock::new(CouplingLog { entries, folded_len }))
    }

    fn log_mut(&mut self) -> &mut CouplingLog {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// The log, folded: `entries` ascending by key with non-zero weights.
    /// Only [`CouplingLog::fold`] runs under the write lock and it cannot
    /// panic, so the lock never poisons; recovering a guard regardless
    /// keeps readers panic-free.
    fn read(&self) -> RwLockReadGuard<'_, CouplingLog> {
        let log = self.0.read().unwrap_or_else(PoisonError::into_inner);
        if log.folded_len == log.entries.len() {
            return log;
        }
        drop(log);
        self.0.write().unwrap_or_else(PoisonError::into_inner).fold();
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CouplingLog {
    /// Stably sorts the adds since the last fold by key, merges them behind
    /// the folded prefix (a prefix entry precedes the later adds to its
    /// key, as it did in call order), then sums each key's run in order
    /// and drops zero sums. Summing from `0.0` and restarting at an exact
    /// zero are the same thing in IEEE arithmetic, so every surviving sum
    /// is bit-identical to updating a sorted map add by add and removing
    /// entries that reach zero.
    fn fold(&mut self) {
        let entries = &mut self.entries;
        if entries.len() == self.folded_len {
            return;
        }
        entries[self.folded_len..].sort_by_key(|&(key, _)| key);
        if self.folded_len > 0 {
            let (head, tail) = entries.split_at(self.folded_len);
            let mut merged = Vec::with_capacity(entries.len());
            let (mut h, mut t) = (0, 0);
            while h < head.len() && t < tail.len() {
                if head[h].0 <= tail[t].0 {
                    merged.push(head[h]);
                    h += 1;
                } else {
                    merged.push(tail[t]);
                    t += 1;
                }
            }
            merged.extend_from_slice(&head[h..]);
            merged.extend_from_slice(&tail[t..]);
            *entries = merged;
        }
        let mut kept = 0;
        let mut run = 0;
        while run < entries.len() {
            let key = entries[run].0;
            let mut sum = 0.0;
            while run < entries.len() && entries[run].0 == key {
                sum += entries[run].1;
                run += 1;
            }
            if sum != 0.0 {
                entries[kept] = (key, sum);
                kept += 1;
            }
        }
        entries.truncate(kept);
        entries.shrink_to_fit();
        self.folded_len = kept;
    }
}

impl Clone for Couplings {
    fn clone(&self) -> Self {
        Self::from_folded(self.read().entries.clone())
    }
}

impl PartialEq for Couplings {
    fn eq(&self, other: &Self) -> bool {
        if std::ptr::eq(self, other) {
            // A second read of the same store could deadlock; only a NaN
            // weight makes a store unequal to itself.
            return !self.read().entries.iter().any(|&(_, w)| w.is_nan());
        }
        self.read().entries == other.read().entries
    }
}

impl std::fmt::Debug for Couplings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let log = self.read();
        f.debug_map().entries(log.entries.iter().map(|&(key, w)| (unpack(key), w))).finish()
    }
}

impl QuboModel {
    /// Creates an all-zero model over `n_vars` binary variables.
    ///
    /// # Panics
    /// Panics if `n_vars` exceeds `2^32` (couplings pack both indices into
    /// one 64-bit key).
    pub fn new(n_vars: usize) -> Self {
        assert!(n_vars as u64 <= 1 << 32, "{n_vars} variables exceeds the coupling key width");
        Self { n_vars, linear: vec![0.0; n_vars], quadratic: Couplings::default(), offset: 0.0 }
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

    /// Adds a constant to the offset.
    pub fn add_offset(&mut self, c: f64) -> &mut Self {
        self.offset += c;
        self
    }

    /// Linear coefficient of variable `i`.
    #[inline]
    pub fn linear(&self, i: usize) -> f64 {
        self.linear[i]
    }

    /// Adds `w` to the linear coefficient of variable `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn add_linear(&mut self, i: usize, w: f64) -> &mut Self {
        assert!(i < self.n_vars, "variable {i} out of range");
        self.linear[i] += w;
        self
    }

    /// Quadratic coefficient of the (unordered) pair `{i, j}`: a binary
    /// search over the folded couplings.
    #[inline]
    pub fn quadratic(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        // `pair_word` is injective only below 2^32, which `n_vars` bounds.
        if j >= self.n_vars {
            return 0.0;
        }
        let log = self.quadratic.read();
        match log.entries.binary_search_by_key(&pair_word(i, j), |&(key, _)| key) {
            Ok(at) => log.entries[at].1,
            Err(_) => 0.0,
        }
    }

    /// Adds `w` to the quadratic coefficient of pair `{i, j}`. Adding to the
    /// diagonal (`i == j`) folds into the linear term since `x^2 = x`.
    ///
    /// `O(1)` amortized: the add is appended and summed into the pair's
    /// coefficient by the next fold (see the [module docs](self)).
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn add_quadratic(&mut self, i: usize, j: usize, w: f64) -> &mut Self {
        assert!(i < self.n_vars && j < self.n_vars, "variable out of range");
        if i == j {
            self.linear[i] += w;
        } else {
            let (i, j) = if i < j { (i, j) } else { (j, i) };
            self.quadratic.log_mut().entries.push((pair_word(i, j), w));
        }
        self
    }

    /// Folds pending coupling adds now rather than on the first read.
    /// Readers fold on demand anyway; encoders call this last so the fold
    /// is charged to building the model, not to whoever reads it first.
    pub fn fold_couplings(&mut self) -> &mut Self {
        self.quadratic.log_mut().fold();
        self
    }

    /// Iterates over non-zero quadratic terms as `((i, j), weight)` with
    /// `i < j`, in ascending `(i, j)` order.
    pub fn quadratic_iter(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        let log = self.quadratic.read();
        let mut at = 0;
        std::iter::from_fn(move || {
            let &(key, w) = log.entries.get(at)?;
            at += 1;
            Some((unpack(key), w))
        })
    }

    /// Number of non-zero quadratic couplings.
    pub fn n_interactions(&self) -> usize {
        self.quadratic.read().entries.len()
    }

    /// Evaluates the energy of a binary assignment.
    ///
    /// # Panics
    /// Panics if `x.len() != n_vars`.
    pub fn energy(&self, x: &[bool]) -> f64 {
        assert_eq!(x.len(), self.n_vars, "assignment length mismatch");
        let mut e = self.offset;
        for (&w, &xi) in self.linear.iter().zip(x.iter()) {
            if xi {
                e += w;
            }
        }
        for ((i, j), w) in self.quadratic_iter() {
            if x[i] && x[j] {
                e += w;
            }
        }
        e
    }

    /// Energy change from flipping variable `i` in assignment `x`
    /// (`x` is the state *before* the flip).
    ///
    /// This is the slow generic path: it scans the whole coupling array in
    /// `O(m)` per call. It exists for one-off checks and tests. Anything
    /// evaluating flips repeatedly — every solver hot loop — should call
    /// [`Self::compile`] once and use
    /// [`CompiledQubo::flip_delta`](crate::compiled::CompiledQubo::flip_delta)
    /// (`O(deg(i))`) or the incremental
    /// [`local_fields`](crate::compiled::CompiledQubo::local_fields)
    /// bookkeeping instead.
    pub fn flip_delta(&self, x: &[bool], i: usize) -> f64 {
        let mut local = self.linear[i];
        for ((a, b), w) in self.quadratic_iter() {
            if (a == i && x[b]) || (b == i && x[a]) {
                local += w;
            }
        }
        if x[i] {
            -local
        } else {
            local
        }
    }

    /// Adjacency lists: for each variable the `(neighbor, weight)` pairs of
    /// its non-zero couplings.
    ///
    /// Solver hot loops should prefer [`Self::compile`]: the flat CSR form
    /// avoids the per-row `Vec` allocations and pointer chasing this
    /// materialization pays.
    pub fn neighbor_lists(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.n_vars];
        for ((i, j), w) in self.quadratic_iter() {
            adj[i].push((j, w));
            adj[j].push((i, w));
        }
        adj
    }

    /// Splits the model into connected components of its interaction graph.
    /// Returns `(component_models, var_maps)` where `var_maps[k][local] =
    /// global`. This is the hybrid decomposition step of Sec. III-C.2: the
    /// query-clustering preprocessing of Trummer & Koch maps to exactly this.
    ///
    /// The full offset is carried by the first component (or lost if there
    /// are none).
    pub fn connected_components(&self) -> Vec<(QuboModel, Vec<usize>)> {
        self.connected_components_with(&self.compile())
    }

    /// [`Self::connected_components`] over an existing compilation of this
    /// exact model, so pipeline callers that already compiled (the
    /// `qdm-runtime` compile-once path) don't pay a second CSR build.
    pub fn connected_components_with(
        &self,
        csr: &crate::compiled::CompiledQubo,
    ) -> Vec<(QuboModel, Vec<usize>)> {
        debug_assert_eq!(csr.n_vars(), self.n_vars, "compilation belongs to another model");
        let mut comp = vec![usize::MAX; self.n_vars];
        let mut n_comps = 0;
        let mut stack = Vec::new();
        for start in 0..self.n_vars {
            if comp[start] != usize::MAX {
                continue;
            }
            stack.push(start);
            comp[start] = n_comps;
            while let Some(v) = stack.pop() {
                let (nbrs, _) = csr.row(v);
                for &u in nbrs {
                    let u = u as usize;
                    if comp[u] == usize::MAX {
                        comp[u] = n_comps;
                        stack.push(u);
                    }
                }
            }
            n_comps += 1;
        }
        let mut var_maps: Vec<Vec<usize>> = vec![Vec::new(); n_comps];
        let mut local_of: Vec<usize> = vec![0; self.n_vars];
        for v in 0..self.n_vars {
            local_of[v] = var_maps[comp[v]].len();
            var_maps[comp[v]].push(v);
        }
        let mut models: Vec<QuboModel> =
            var_maps.iter().map(|vm| QuboModel::new(vm.len())).collect();
        for (v, &c) in comp.iter().enumerate() {
            models[c].add_linear(local_of[v], self.linear[v]);
        }
        for ((i, j), w) in self.quadratic_iter() {
            debug_assert_eq!(comp[i], comp[j]);
            models[comp[i]].add_quadratic(local_of[i], local_of[j], w);
        }
        if let Some(first) = models.first_mut() {
            first.add_offset(self.offset);
        }
        models.into_iter().zip(var_maps).collect()
    }

    /// A canonical 64-bit fingerprint of the model: a word-at-a-time hash
    /// (one folded 64×64→128 multiply per word, with constants XORed into
    /// both operands) over the variable count, every linear coefficient,
    /// the sorted non-zero couplings (each as its packed `(i, j)` key word
    /// and its weight), and the offset (all `f64`s hashed by IEEE-754 bit
    /// pattern, `-0.0` normalized to `0.0`).
    ///
    /// Two models built through any sequence of `add_*` calls that produce
    /// the same coefficients fingerprint identically, because the folded
    /// couplings are canonical: upper-triangular sorted keys with zero
    /// couplings pruned. `qdm-runtime` keys its result cache on this, so
    /// repeated encodings of the same MQO / join-ordering instance are
    /// served without re-solving. Fingerprints are stable within a build, not across
    /// builds that change the hash: persisted images keyed on them carry
    /// their own format version.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(FINGERPRINT_SEED, self.n_vars as u64);
        for &w in &self.linear {
            h = mix(h, f64_bits(w));
        }
        for &(key, w) in &self.quadratic.read().entries {
            h = mix(mix(h, key), f64_bits(w));
        }
        mix(h, f64_bits(self.offset))
    }

    /// A variable-permutation-invariant fingerprint: two models that differ
    /// only by a relabeling of their variables hash identically whenever
    /// the two-round signature refinement of [`Self::canonical_form`]
    /// separates every variable. Models whose variables stay tied after two
    /// rounds — coefficient symmetries, or structure the refinement is too
    /// shallow to tell apart — may fingerprint differently per labeling.
    ///
    /// `qdm-runtime` keys its result cache on this, so the same MQO /
    /// join-ordering instance encoded with plans or relations enumerated in a
    /// different order is still served from cache. See [`Self::canonical_form`]
    /// for the permutation needed to translate cached assignments back.
    pub fn canonical_fingerprint(&self) -> u64 {
        self.canonical_form().0
    }

    /// Computes the canonical relabeling of the model and the fingerprint of
    /// the relabeled coefficients: returns `(fingerprint, perm)` with
    /// `perm[original_index] = canonical_index`.
    ///
    /// Variables are sorted by a coefficient signature — a hash of the
    /// linear term, refined twice by folding in a commutative multiset hash
    /// (wrapping sum) of `mix(coupling weight, neighbor signature)` over
    /// the row, a Weisfeiler-Lehman-style pass — and the relabeled
    /// coefficient stream is hashed exactly as [`Self::fingerprint`] would
    /// hash the relabeled model (without materializing it). Ties
    /// (variables whose signatures still agree after the two rounds) break
    /// by original index, so symmetric or refinement-indistinguishable
    /// variables may canonicalize differently across permutations; that
    /// costs a cache hit, never correctness.
    /// The implementation is [`crate::compiled::canonical_form_csr`] (the
    /// signature refinement walks CSR rows anyway); this wrapper builds the
    /// CSR arrays directly via [`crate::compiled::build_symmetric_csr`]
    /// *without* constructing a [`crate::compiled::CompiledQubo`], so
    /// canonicalizing a model for routing or cache lookups leaves the
    /// [`crate::compiled::compilation_count`] ledger untouched — which is
    /// how `qdm-runtime` keys every job before, and without, compiling it.
    /// Callers that already hold a compilation can call
    /// `CompiledQubo::canonical_form` and share even the CSR build.
    pub fn canonical_form(&self) -> (u64, Vec<usize>) {
        let (row_offsets, neighbors, weights) =
            crate::compiled::build_symmetric_csr(self.n_vars(), || self.quadratic_iter());
        crate::compiled::canonical_form_csr(
            self.n_vars(),
            self.offset(),
            &self.linear,
            &row_offsets,
            &neighbors,
            &weights,
        )
    }

    /// A lower bound on the energy: offset plus all negative coefficients.
    pub fn naive_lower_bound(&self) -> f64 {
        let mut b = self.offset;
        b += self.linear.iter().filter(|w| **w < 0.0).sum::<f64>();
        b +=
            self.quadratic.read().entries.iter().map(|&(_, w)| w).filter(|w| *w < 0.0).sum::<f64>();
        b
    }

    /// Maximum absolute coefficient — used for penalty-weight and chain-
    /// strength heuristics.
    pub fn max_abs_coefficient(&self) -> f64 {
        let l = self.linear.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        let q = self.quadratic.read().entries.iter().fold(0.0f64, |m, &(_, w)| m.max(w.abs()));
        l.max(q)
    }

    /// Serializes the model to a self-contained little-endian byte record:
    /// version tag, `n_vars` as a `u64`, the dense linear vector, the
    /// coupling count as a `u64`, the couplings, and the offset (`f64`s as
    /// IEEE-754 bits). Each coupling `(i, j)` is its row-major index
    /// `i·n_vars + j`, written as the unsigned LEB128 gap from the previous
    /// coupling's index (the first from 0), followed by its weight: the
    /// sorted keys of a Table I model sit close together, so a key takes one
    /// or two bytes instead of sixteen. The workspace's serde shim has no
    /// serializer, so durability layers (the runtime's job journal) persist
    /// models through this hand-rolled codec; [`QuboModel::from_bytes`]
    /// restores a model that is `==` to the original and shares its
    /// [`QuboModel::fingerprint`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let log = self.quadratic.read();
        let couplings = &log.entries;
        let mut out = Vec::with_capacity(33 + 8 * self.linear.len() + 10 * couplings.len());
        out.push(QUBO_CODEC_VERSION);
        out.extend_from_slice(&(self.n_vars as u64).to_le_bytes());
        for &w in &self.linear {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(couplings.len() as u64).to_le_bytes());
        // `i < j < n_vars <= 2^32`, so every index is below `n_vars^2`.
        let mut prev = 0u64;
        for &(key, w) in couplings {
            let (i, j) = unpack(key);
            let index = i as u64 * self.n_vars as u64 + j as u64;
            put_leb128(&mut out, index - prev);
            prev = index;
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.offset.to_le_bytes());
        out
    }

    /// Decodes a record produced by [`QuboModel::to_bytes`]. Returns `None`
    /// for a truncated, oversized, or differently-versioned record — the
    /// torn-tail case a crashed writer leaves behind — and for couplings
    /// `to_bytes` never writes: zero gaps (a repeated key), indices off the
    /// strict upper triangle or past the last row, zero weights, and LEB128
    /// gaps that are padded or overflow 64 bits. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut cur = Cursor { bytes, at: 0 };
        if cur.u8()? != QUBO_CODEC_VERSION {
            return None;
        }
        let n_vars = usize::try_from(cur.u64()?).ok()?;
        // Defensive cap: a torn length prefix must not drive allocation.
        if n_vars > bytes.len() / 8 {
            return None;
        }
        let mut linear = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            linear.push(cur.f64()?);
        }
        let n_quad = usize::try_from(cur.u64()?).ok()?;
        // A coupling takes at least a one-byte gap and an eight-byte weight.
        if n_quad > bytes.len() / 9 {
            return None;
        }
        let n = n_vars as u64;
        let mut couplings: Vec<(u64, f64)> = Vec::with_capacity(n_quad);
        let mut index = 0u64;
        for _ in 0..n_quad {
            let gap = cur.leb128()?;
            if gap == 0 {
                return None;
            }
            index = index.checked_add(gap)?;
            // `i < j` also puts `i` below `n_vars`; `n_vars == 0` fails here.
            let (i, j) = (index.checked_div(n)?, index % n);
            let w = cur.f64()?;
            if i >= j || w == 0.0 {
                return None;
            }
            couplings.push((pair_word(i as usize, j as usize), w));
        }
        let offset = cur.f64()?;
        if cur.at != bytes.len() {
            return None;
        }
        Some(Self { n_vars, linear, quadratic: Couplings::from_folded(couplings), offset })
    }
}

/// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
/// group first, the high bit set on every byte but the last.
fn put_leb128(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Version tag leading every [`QuboModel::to_bytes`] record. Version 1
/// wrote each coupling as `i` and `j` (`u64` each) and its weight, 24 bytes.
const QUBO_CODEC_VERSION: u8 = 2;

/// Initial state of every fingerprint hash chain.
pub(crate) const FINGERPRINT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds one 64-bit word into a fingerprint hash state: a single
/// 64×64→128 multiply whose high and low halves are XORed together.
/// Distinct constants are XORed into both operands first, so a zero word
/// (or a zero state) still mixes.
#[inline]
pub(crate) fn mix(h: u64, word: u64) -> u64 {
    let product = u128::from(h ^ 0x243f_6a88_85a3_08d3) * u128::from(word ^ 0x1319_8a2e_0370_7344);
    (product as u64) ^ ((product >> 64) as u64)
}

/// A coupling's `(i, j)` key packed into one word: the storage key of
/// [`QuboModel`]'s coupling array and the word its fingerprint hashes.
/// Injective, and ordered like `(i, j)`, for indices below 2^32, which
/// [`QuboModel::new`] guarantees.
#[inline]
pub(crate) fn pair_word(i: usize, j: usize) -> u64 {
    (i as u64) << 32 | j as u64
}

/// Inverse of [`pair_word`].
#[inline]
fn unpack(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & 0xffff_ffff) as usize)
}

/// An `f64`'s IEEE-754 bit pattern with `-0.0` normalized to `0.0`, so
/// signed zeros never split fingerprints.
#[inline]
pub(crate) fn f64_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Minimal forward-only byte reader behind [`QuboModel::from_bytes`].
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.at.checked_add(8)?;
        let chunk = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(u64::from_le_bytes(chunk.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// An unsigned LEB128 varint in the shortest form [`put_leb128`]
    /// writes: at most ten bytes, no bits past 64, no padding zero byte.
    fn leb128(&mut self) -> Option<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return None;
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return (byte != 0 || shift == 0).then_some(value);
            }
        }
        None
    }
}

/// Converts a bitmask index (bit `i` = variable `i`) to a boolean assignment.
pub fn bits_from_index(index: usize, n: usize) -> Vec<bool> {
    (0..n).map(|i| index & (1 << i) != 0).collect()
}

/// Converts a boolean assignment to a bitmask index.
pub fn index_from_bits(bits: &[bool]) -> usize {
    bits.iter().enumerate().fold(0, |acc, (i, &b)| if b { acc | (1 << i) } else { acc })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_of_simple_model() {
        let mut q = QuboModel::new(3);
        q.add_linear(0, 1.0).add_linear(1, -2.0).add_quadratic(0, 1, 3.0).add_offset(0.5);
        assert_eq!(q.energy(&[false, false, false]), 0.5);
        assert_eq!(q.energy(&[true, false, false]), 1.5);
        assert_eq!(q.energy(&[true, true, false]), 0.5 + 1.0 - 2.0 + 3.0);
    }

    #[test]
    fn diagonal_quadratic_folds_into_linear() {
        let mut q = QuboModel::new(2);
        q.add_quadratic(1, 1, 4.0);
        assert_eq!(q.linear(1), 4.0);
        assert_eq!(q.energy(&[false, true]), 4.0);
    }

    #[test]
    fn quadratic_is_symmetric() {
        let mut q = QuboModel::new(2);
        q.add_quadratic(1, 0, 2.0);
        assert_eq!(q.quadratic(0, 1), 2.0);
        assert_eq!(q.quadratic(1, 0), 2.0);
    }

    #[test]
    fn zero_couplings_are_pruned() {
        let mut q = QuboModel::new(2);
        q.add_quadratic(0, 1, 2.0).add_quadratic(0, 1, -2.0);
        assert_eq!(q.n_interactions(), 0);
    }

    #[test]
    fn flip_delta_matches_energy_difference() {
        let mut q = QuboModel::new(4);
        q.add_linear(0, 1.5)
            .add_linear(2, -0.5)
            .add_quadratic(0, 1, 2.0)
            .add_quadratic(1, 2, -1.0)
            .add_quadratic(0, 3, 0.75);
        let x = [true, false, true, true];
        for i in 0..4 {
            let mut y = x;
            y[i] = !y[i];
            let want = q.energy(&y) - q.energy(&x);
            let got = q.flip_delta(&x, i);
            assert!((want - got).abs() < 1e-12, "var {i}: want {want}, got {got}");
        }
    }

    #[test]
    fn connected_components_split() {
        let mut q = QuboModel::new(5);
        // Component {0,1}, component {2,3}, isolated {4}.
        q.add_quadratic(0, 1, 1.0).add_quadratic(2, 3, -2.0).add_linear(4, 7.0);
        q.add_offset(10.0);
        let comps = q.connected_components();
        assert_eq!(comps.len(), 3);
        let total_vars: usize = comps.iter().map(|(m, _)| m.n_vars()).sum();
        assert_eq!(total_vars, 5);
        // Energies decompose: best of each component sums to best global.
        let all_false = |m: &QuboModel| m.energy(&vec![false; m.n_vars()]);
        let sum: f64 = comps.iter().map(|(m, _)| all_false(m)).sum();
        assert_eq!(sum, q.energy(&[false; 5]));
    }

    #[test]
    fn index_bits_roundtrip() {
        for idx in 0..32 {
            let bits = bits_from_index(idx, 5);
            assert_eq!(index_from_bits(&bits), idx);
        }
    }

    #[test]
    fn neighbor_lists_are_symmetric() {
        let mut q = QuboModel::new(3);
        q.add_quadratic(0, 2, 2.5).add_quadratic(1, 2, -1.0);
        let adj = q.neighbor_lists();
        assert_eq!(adj[0], vec![(2, 2.5)]);
        assert_eq!(adj[2], vec![(0, 2.5), (1, -1.0)]);
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_canonical() {
        let mut a = QuboModel::new(4);
        a.add_linear(0, 1.5).add_quadratic(0, 1, 2.0).add_quadratic(2, 3, -1.0);
        let mut b = QuboModel::new(4);
        b.add_quadratic(3, 2, -1.0).add_quadratic(1, 0, 2.0).add_linear(0, 1.5);
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Cancelled couplings are pruned, so they do not perturb the hash.
        let mut c = QuboModel::new(4);
        c.add_linear(0, 1.5)
            .add_quadratic(0, 1, 2.0)
            .add_quadratic(2, 3, -1.0)
            .add_quadratic(1, 3, 4.0)
            .add_quadratic(1, 3, -4.0);
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_models() {
        let mut a = QuboModel::new(3);
        a.add_linear(0, 1.0);
        let mut b = QuboModel::new(3);
        b.add_linear(1, 1.0);
        let mut c = QuboModel::new(3);
        c.add_linear(0, 1.0 + 1e-12);
        let mut d = QuboModel::new(4);
        d.add_linear(0, 1.0);
        let prints = [a.fingerprint(), b.fingerprint(), c.fingerprint(), d.fingerprint()];
        for (i, x) in prints.iter().enumerate() {
            for y in &prints[i + 1..] {
                assert_ne!(x, y);
            }
        }
        // Signed zero must not split cache keys.
        let mut z1 = QuboModel::new(1);
        z1.add_linear(0, 0.0);
        let mut z2 = QuboModel::new(1);
        z2.add_linear(0, -0.0);
        assert_eq!(z1.fingerprint(), z2.fingerprint());
    }

    #[test]
    fn canonical_fingerprint_is_permutation_invariant() {
        // A model with distinct coefficients and its image under the
        // permutation 0→2, 1→0, 2→3, 3→1.
        let mut a = QuboModel::new(4);
        a.add_linear(0, 1.5)
            .add_linear(1, -2.0)
            .add_linear(2, 3.25)
            .add_linear(3, 0.5)
            .add_quadratic(0, 1, 2.0)
            .add_quadratic(1, 2, -1.0)
            .add_quadratic(0, 3, 4.0)
            .add_offset(0.75);
        let to = [2usize, 0, 3, 1];
        let mut b = QuboModel::new(4);
        for (i, &t) in to.iter().enumerate() {
            b.add_linear(t, a.linear(i));
        }
        for ((i, j), w) in a.quadratic_iter() {
            b.add_quadratic(to[i], to[j], w);
        }
        b.add_offset(a.offset());

        assert_ne!(a.fingerprint(), b.fingerprint(), "plain fingerprint is label-sensitive");
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());

        // The permutations translate assignments between the two labelings:
        // bits agreeing in canonical positions have equal energies.
        let (_, perm_a) = a.canonical_form();
        let (_, perm_b) = b.canonical_form();
        for idx in 0..16 {
            let bits_a = bits_from_index(idx, 4);
            let mut bits_b = vec![false; 4];
            for i in 0..4 {
                // canonical position of a's var i holds bits_a[i]; find b's
                // variable at the same canonical position.
                let canonical = perm_a[i];
                let j = perm_b.iter().position(|&c| c == canonical).unwrap();
                bits_b[j] = bits_a[i];
            }
            assert!((a.energy(&bits_a) - b.energy(&bits_b)).abs() < 1e-12);
        }
    }

    #[test]
    fn canonical_fingerprint_equals_fingerprint_of_relabeled_model() {
        let mut q = QuboModel::new(4);
        q.add_linear(0, 1.5)
            .add_linear(2, -2.0)
            .add_quadratic(0, 1, 2.0)
            .add_quadratic(1, 3, -1.0)
            .add_offset(0.25);
        let (fp, perm) = q.canonical_form();
        let mut relabeled = QuboModel::new(4);
        for (i, &p) in perm.iter().enumerate() {
            relabeled.add_linear(p, q.linear(i));
        }
        for ((i, j), w) in q.quadratic_iter() {
            relabeled.add_quadratic(perm[i], perm[j], w);
        }
        relabeled.add_offset(q.offset());
        assert_eq!(fp, relabeled.fingerprint(), "streamed hash must match the relabeled model");
    }

    #[test]
    fn canonical_fingerprint_still_distinguishes_different_models() {
        let mut a = QuboModel::new(3);
        a.add_linear(0, 1.0).add_quadratic(0, 1, 2.0);
        let mut b = QuboModel::new(3);
        b.add_linear(0, 1.0).add_quadratic(0, 1, 2.5);
        let mut c = QuboModel::new(3);
        c.add_linear(0, 1.0).add_quadratic(0, 2, 2.0);
        assert_ne!(a.canonical_fingerprint(), b.canonical_fingerprint());
        // a and c ARE permutations of each other (swap vars 1 and 2).
        assert_eq!(a.canonical_fingerprint(), c.canonical_fingerprint());
        let mut d = QuboModel::new(4);
        d.add_linear(0, 1.0).add_quadratic(0, 1, 2.0);
        assert_ne!(a.canonical_fingerprint(), d.canonical_fingerprint());
    }

    #[test]
    fn naive_lower_bound_is_a_bound() {
        let mut q = QuboModel::new(3);
        q.add_linear(0, -1.0).add_linear(1, 2.0).add_quadratic(0, 1, -3.0).add_offset(0.5);
        let lb = q.naive_lower_bound();
        for idx in 0..8 {
            assert!(q.energy(&bits_from_index(idx, 3)) >= lb - 1e-12);
        }
    }

    #[test]
    fn byte_codec_roundtrips_models_exactly() {
        let mut q = QuboModel::new(5);
        q.add_linear(0, -1.5)
            .add_linear(3, 2.25)
            .add_quadratic(0, 1, 3.0)
            .add_quadratic(2, 4, -0.125)
            .add_offset(7.5);
        let restored = QuboModel::from_bytes(&q.to_bytes()).expect("decodes");
        assert_eq!(restored, q);
        assert_eq!(restored.fingerprint(), q.fingerprint());
        assert_eq!(restored.canonical_fingerprint(), q.canonical_fingerprint());

        // Degenerate models round-trip too.
        let empty = QuboModel::new(0);
        assert_eq!(QuboModel::from_bytes(&empty.to_bytes()), Some(empty));
    }

    #[test]
    fn byte_codec_rejects_torn_and_corrupt_records() {
        let mut q = QuboModel::new(3);
        q.add_linear(1, 4.0).add_quadratic(0, 2, -1.0);
        let bytes = q.to_bytes();
        // Every strict prefix is a torn tail a crashed writer could leave.
        for cut in 0..bytes.len() {
            assert_eq!(QuboModel::from_bytes(&bytes[..cut]), None, "prefix of {cut} bytes");
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(QuboModel::from_bytes(&longer), None);
        // A wrong version tag is rejected.
        let mut wrong = bytes;
        wrong[0] ^= 0xFF;
        assert_eq!(QuboModel::from_bytes(&wrong), None);
    }

    /// A hand-assembled record: `n_vars` zero linear terms, the given
    /// couplings as (encoded index gap, weight) verbatim, zero offset.
    fn record(n_vars: u64, couplings: &[(&[u8], f64)]) -> Vec<u8> {
        let mut out = vec![QUBO_CODEC_VERSION];
        out.extend_from_slice(&n_vars.to_le_bytes());
        out.resize(out.len() + 8 * n_vars as usize, 0);
        out.extend_from_slice(&(couplings.len() as u64).to_le_bytes());
        for &(gap, w) in couplings {
            out.extend_from_slice(gap);
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&0.0f64.to_le_bytes());
        out
    }

    #[test]
    fn byte_codec_rejects_couplings_to_bytes_never_writes() {
        // (0, 1), (0, 3) and (2, 3) of 4 variables: indices 1, 3 and 11.
        let ok = record(4, &[(&[1], 1.0), (&[2], 2.0), (&[8], -1.0)]);
        let q = QuboModel::from_bytes(&ok).expect("ascending keys decode");
        assert_eq!(q.to_bytes(), ok);
        assert_eq!(q.quadratic(3, 0), 2.0);
        assert_eq!(q.quadratic(2, 3), -1.0);
        let overflow: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        for bad in [
            record(4, &[(&[1], 1.0), (&[0], 2.0)]), // zero gap: a repeated key
            record(4, &[(&[0], 1.0)]),              // index 0 is the diagonal (0, 0)
            record(4, &[(&[1], 0.0)]),              // zero weight
            record(4, &[(&[5], 1.0)]),              // diagonal (1, 1)
            record(4, &[(&[9], 1.0)]),              // lower triangle (2, 1)
            record(4, &[(&[16], 1.0)]),             // past the last row
            record(4, &[(&[1], 1.0), (overflow, 1.0)]), // index past u64
            record(4, &[(&[0x81, 0x00], 1.0)]),     // padded varint of 1
            record(4, &[(&[0x80; 10], 1.0)]),       // unterminated varint
            record(4, &[(&[0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02], 1.0)]),
            record(0, &[(&[1], 1.0)]), // a coupling without variables
        ] {
            assert_eq!(QuboModel::from_bytes(&bad), None, "{bad:02x?}");
        }
    }

    #[test]
    fn byte_codec_keys_take_one_byte_per_nearby_gap() {
        // A dense row: 5 couplings of 8 bytes each plus one gap byte each.
        let mut q = QuboModel::new(6);
        for j in 1..6 {
            q.add_quadratic(0, j, 1.0);
        }
        assert_eq!(q.to_bytes().len(), 1 + 8 + 6 * 8 + 8 + 5 * 9 + 8);
        // The widest gap the reader accepts is the widest one written.
        let mut big = Vec::new();
        put_leb128(&mut big, u64::MAX);
        assert_eq!(big.len(), 10);
        let mut cur = Cursor { bytes: &big, at: 0 };
        assert_eq!(cur.leb128(), Some(u64::MAX));
    }

    #[test]
    fn coupling_store_bits_match_the_sorted_map_store_it_replaced() {
        // The fingerprints were produced by the `BTreeMap`-backed model and
        // must not move with the storage. The codec bytes are those of
        // codec version 2 (version 1 wrote 489 bytes, FNV-1a
        // 0x64f4_aa6f_f826_3c7f).
        let mut q = QuboModel::new(7);
        let mut w = 0.1f64;
        let mut s = 7u64;
        for step in 0..60usize {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let (i, j) = ((s >> 33) as usize % 7, (s >> 45) as usize % 7);
            w = (w * 1.7 - 0.3 * (step % 4) as f64) % 5.0;
            q.add_quadratic(i, j, w);
            if step % 9 == 4 {
                q.add_quadratic(j, i, -q.quadratic(i, j));
            }
            if step == 30 {
                assert!(q.n_interactions() > 0);
            }
            q.add_linear(step % 7, 0.25 * step as f64);
        }
        q.add_quadratic(0, 6, 1.5).add_quadratic(6, 0, -1.5).add_quadratic(2, 5, -0.0);
        q.add_offset(-3.5);
        let fnv = q.to_bytes().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(q.n_interactions(), 17);
        assert_eq!(q.fingerprint(), 0xb553_eff0_fa79_b871);
        assert_eq!(q.canonical_fingerprint(), 0x0ad7_a95c_8b56_bafd);
        assert_eq!((q.to_bytes().len(), fnv), (234, 0x3c34_d8e9_4fa5_8a00));
    }

    mod equivalence {
        //! The flat coupling store against the store it replaced: a sorted
        //! map updated add by add, with entries removed when they reach
        //! zero, and the readers written over it.

        use super::super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        struct Reference {
            n_vars: usize,
            linear: Vec<f64>,
            quadratic: BTreeMap<(usize, usize), f64>,
            offset: f64,
        }

        impl Reference {
            fn add_quadratic(&mut self, i: usize, j: usize, w: f64) {
                if i == j {
                    self.linear[i] += w;
                } else {
                    let key = if i < j { (i, j) } else { (j, i) };
                    let entry = self.quadratic.entry(key).or_insert(0.0);
                    *entry += w;
                    if *entry == 0.0 {
                        self.quadratic.remove(&key);
                    }
                }
            }

            fn energy(&self, x: &[bool]) -> f64 {
                let mut e = self.offset;
                for (&w, &xi) in self.linear.iter().zip(x) {
                    if xi {
                        e += w;
                    }
                }
                for (&(i, j), &w) in &self.quadratic {
                    if x[i] && x[j] {
                        e += w;
                    }
                }
                e
            }

            fn fingerprint(&self) -> u64 {
                let mut h = mix(FINGERPRINT_SEED, self.n_vars as u64);
                for &w in &self.linear {
                    h = mix(h, f64_bits(w));
                }
                for (&(i, j), &w) in &self.quadratic {
                    h = mix(mix(h, pair_word(i, j)), f64_bits(w));
                }
                mix(h, f64_bits(self.offset))
            }

            fn to_bytes(&self) -> Vec<u8> {
                let mut out = vec![QUBO_CODEC_VERSION];
                out.extend_from_slice(&(self.n_vars as u64).to_le_bytes());
                for &w in &self.linear {
                    out.extend_from_slice(&w.to_le_bytes());
                }
                out.extend_from_slice(&(self.quadratic.len() as u64).to_le_bytes());
                let mut prev = 0;
                for (&(i, j), &w) in &self.quadratic {
                    let index = (i * self.n_vars + j) as u64;
                    put_leb128(&mut out, index - prev);
                    prev = index;
                    out.extend_from_slice(&w.to_le_bytes());
                }
                out.extend_from_slice(&self.offset.to_le_bytes());
                out
            }
        }

        /// Weights chosen to collide: exact cancellations, signed zeros,
        /// and sums that round (`0.1 + 0.2 != 0.3`).
        const WEIGHTS: [f64; 12] =
            [1.0, -1.0, 0.5, -0.5, 0.0, -0.0, 0.1, 0.2, -0.3, 2.25, -2.25, 1e-300];

        fn assert_same(q: &QuboModel, r: &Reference) {
            let bits = |m: Vec<((usize, usize), f64)>| -> Vec<((usize, usize), u64)> {
                m.into_iter().map(|(k, w)| (k, w.to_bits())).collect()
            };
            let want: Vec<_> = r.quadratic.iter().map(|(&k, &w)| (k, w)).collect();
            assert_eq!(bits(q.quadratic_iter().collect()), bits(want));
            assert_eq!(q.n_interactions(), r.quadratic.len());
            for i in 0..r.n_vars {
                for j in 0..r.n_vars {
                    let key = if i < j { (i, j) } else { (j, i) };
                    let want =
                        if i == j { 0.0 } else { r.quadratic.get(&key).copied().unwrap_or(0.0) };
                    assert_eq!(q.quadratic(i, j).to_bits(), want.to_bits(), "({i}, {j})");
                }
            }
            for idx in 0..1usize << r.n_vars {
                let x = bits_from_index(idx, r.n_vars);
                assert_eq!(q.energy(&x).to_bits(), r.energy(&x).to_bits());
            }
            assert_eq!(q.fingerprint(), r.fingerprint());
            assert_eq!(q.to_bytes(), r.to_bytes());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn coupling_store_is_bit_identical_to_a_sorted_map(
                n in 1usize..7,
                ops in collection::vec((0usize..6, 0usize..6, 0usize..12, 0usize..8), 0..400),
                read_every in 0usize..3,
            ) {
                let mut q = QuboModel::new(n);
                let mut r = Reference {
                    n_vars: n,
                    linear: vec![0.0; n],
                    quadratic: BTreeMap::new(),
                    offset: 0.0,
                };
                for (i, j, w, op) in ops {
                    let (i, j, w) = (i % n, j % n, WEIGHTS[w]);
                    q.add_quadratic(i, j, w);
                    r.add_quadratic(i, j, w);
                    // Mid-stream reads (none, one op in eight, or one in
                    // two) make later adds merge into a folded prefix;
                    // without them one fold sorts the whole log.
                    if op < read_every * read_every {
                        assert_same(&q, &r);
                    }
                }
                assert_same(&q, &r);
                let copy = q.clone();
                assert_same(&copy, &r);
                assert_eq!(copy, q);
                let decoded = QuboModel::from_bytes(&q.to_bytes()).expect("decodes");
                assert_same(&decoded, &r);
            }
        }
    }
}
