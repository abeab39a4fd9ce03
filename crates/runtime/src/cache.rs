//! The result cache: completed [`PipelineReport`]s keyed by a canonical
//! fingerprint of the *work*, so repeated submissions of the same encoding —
//! the common case when the same MQO or join-ordering instance arrives again
//! — are served without re-solving.
//!
//! The key combines the QUBO's canonical fingerprint
//! ([`qdm_qubo::model::QuboModel::canonical_fingerprint`]) with the pipeline
//! options, the job seed, and the requested backend, so the same instance
//! encoded with its variables enumerated in a different order hits whenever
//! the canonical labeling tells its variables apart (see
//! [`qdm_qubo::model::QuboModel::canonical_form`] for the limit).
//! Entries store the solved assignment in *canonical* variable order
//! ([`CachedResult::canonical_bits`]); the service translates it back into
//! the requester's labeling on every hit. Under fixed seeds every pipeline
//! stage is deterministic, so an identically-labeled hit returns a
//! **bit-identical** report to what re-solving would have produced; the
//! cache trades memory for latency without changing any observable result.
//!
//! Storage is sharded: `min(capacity, MAX_SHARDS)` independently locked
//! shards selected by the canonical fingerprint, so concurrent workers
//! rarely contend on the same mutex at high worker counts. Each shard
//! evicts independently with a **second-chance (CLOCK)** policy: every
//! entry carries a referenced bit that hits set; the eviction hand clears
//! set bits as it sweeps and evicts the first entry it finds unreferenced.
//! A hot fingerprint that keeps hitting therefore survives churn that plain
//! FIFO insertion order would have evicted it under, at FIFO's O(1) cost
//! and with none of LRU's per-hit list surgery. The per-shard capacities sum
//! to **exactly** the configured capacity (the division remainder is spread
//! one entry each across the first shards), and the total never exceeds it.
//!
//! This module also hosts the `FlightTable`: the single-flight table the
//! service consults *before* the cache can answer. Two concurrent
//! submissions of the same work both miss the cache (the entry only appears
//! after the first solve completes), and without coordination both would
//! solve — the thundering-herd re-solve. The table registers one leader per
//! in-flight key; duplicates park on the leader's `Flight` and are served
//! its completed result through the same canonical-bit translation a cache
//! hit uses. Flights are keyed on the canonical [`CacheKey`], so
//! permuted-but-identical encodings coalesce too, and a follower parks
//! before it compiles anything.

use crate::service::JobError;
use crate::sync::{CondvarExt, LockExt};
use qdm_core::pipeline::{PipelineOptions, PipelineReport};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Upper bound on the number of independently locked cache shards.
pub const MAX_SHARDS: usize = 16;

/// Minimum capacity a shard is worth: small caches stay unsharded so
/// fingerprint collisions between a handful of entries cannot evict each
/// other prematurely.
pub const SHARD_MIN_CAPACITY: usize = 64;

/// Cache key: canonical work identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The problem's [`qdm_core::problem::DmProblem::name`]. Two different
    /// problem types can encode to coefficient-identical QUBOs while
    /// decoding/repairing differently; the name keeps their entries apart.
    pub problem: String,
    /// Canonical QUBO fingerprint (labeling-independent wherever the
    /// canonical labeling resolves every variable).
    pub qubo_fingerprint: u64,
    /// Pipeline options, packed (presolve | decompose<<1 | repair<<2).
    /// Priority is scheduling-only and deliberately excluded: a job's result
    /// is identical at every priority level.
    pub options_bits: u8,
    /// Per-job RNG seed.
    pub seed: u64,
    /// Requested backend name, or `None` for portfolio ("auto") routing.
    pub backend: Option<String>,
}

impl CacheKey {
    /// Builds a key from job parameters.
    pub fn new(
        problem: String,
        qubo_fingerprint: u64,
        options: &PipelineOptions,
        seed: u64,
        backend: Option<&str>,
    ) -> Self {
        Self {
            problem,
            qubo_fingerprint,
            options_bits: pack_options(options),
            seed,
            backend: backend.map(str::to_string),
        }
    }
}

/// Packs the result-affecting pipeline options into the byte cache keys
/// carry (priority is scheduling-only and excluded).
pub(crate) fn pack_options(options: &PipelineOptions) -> u8 {
    (options.presolve as u8) | ((options.decompose as u8) << 1) | ((options.repair as u8) << 2)
}

/// A cached completed job.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The full pipeline report as produced by the original solve (its
    /// `bits` are in the *original submitter's* variable order).
    pub report: PipelineReport,
    /// The solved assignment permuted into canonical variable order, so a
    /// hit from a permuted-but-identical encoding can translate it into its
    /// own labeling (`bits[i] = canonical_bits[perm[i]]`).
    pub canonical_bits: Vec<bool>,
    /// Name of the backend that produced it.
    pub backend: String,
}

impl CachedResult {
    /// Whether this result can answer a model of `n_vars` variables. A
    /// length mismatch means a 64-bit fingerprint collision across model
    /// sizes; serving it would index past the requester's permutation, so
    /// the service treats it as a miss.
    pub(crate) fn fits(&self, n_vars: usize) -> bool {
        self.canonical_bits.len() == n_vars
    }
}

/// One ring slot of a shard's CLOCK: the entry plus its referenced bit.
struct Slot {
    key: CacheKey,
    value: CachedResult,
    referenced: bool,
}

struct CacheInner {
    /// Key → ring index of the live entry.
    map: HashMap<CacheKey, usize>,
    /// The CLOCK ring, filled up to the shard capacity and then recycled in
    /// place (deterministic, no clocks-the-time-kind).
    ring: Vec<Slot>,
    /// Next ring position the eviction hand examines.
    hand: usize,
    /// This shard's entry budget. Shards differ by at most one entry so the
    /// budgets sum to exactly the configured cache capacity.
    capacity: usize,
}

impl CacheInner {
    /// Second-chance sweep: clears referenced bits until it lands on an
    /// unreferenced entry, evicts it, and returns its ring index for reuse.
    /// Terminates within two laps (after one lap every bit is clear).
    fn evict_one(&mut self) -> usize {
        loop {
            let h = self.hand;
            self.hand = (self.hand + 1) % self.ring.len();
            let slot = &mut self.ring[h];
            if slot.referenced {
                slot.referenced = false;
            } else {
                self.map.remove(&slot.key);
                return h;
            }
        }
    }
}

/// A bounded, thread-safe result cache: fingerprint-sharded with per-shard
/// second-chance (CLOCK) eviction.
pub struct ResultCache {
    shards: Vec<Mutex<CacheInner>>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (at least 1). The shard
    /// count scales with capacity — one shard per [`SHARD_MIN_CAPACITY`]
    /// entries, capped at [`MAX_SHARDS`] — so the default service cache gets
    /// full sharding while tiny test caches keep single-FIFO semantics.
    /// The division remainder is distributed one entry each across the
    /// first `capacity % n_shards` shards, so the per-shard budgets sum to
    /// exactly `capacity` (a flat `capacity / n_shards` would silently
    /// shrink a 1000-entry cache to 990).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = (capacity / SHARD_MIN_CAPACITY).clamp(1, MAX_SHARDS);
        let base = capacity / n_shards;
        let remainder = capacity % n_shards;
        let shards = (0..n_shards)
            .map(|i| {
                Mutex::new(CacheInner {
                    map: HashMap::new(),
                    ring: Vec::new(),
                    hand: 0,
                    capacity: base + usize::from(i < remainder),
                })
            })
            .collect();
        Self { shards }
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entry budget: the sum of per-shard capacities, exactly the
    /// `capacity` the cache was built with.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock_unpoisoned().capacity).sum()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<CacheInner> {
        &self.shards[(key.qubo_fingerprint as usize) % self.shards.len()]
    }

    /// Looks up a completed result, marking the entry referenced so the
    /// CLOCK hand grants it a second chance on its next sweep.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        let mut inner = self.shard(key).lock_unpoisoned();
        let &slot = inner.map.get(key)?;
        inner.ring[slot].referenced = true;
        Some(inner.ring[slot].value.clone())
    }

    /// Inserts a completed result; when the shard is full the CLOCK hand
    /// evicts the first entry it finds whose referenced bit is clear
    /// (clearing set bits as it sweeps). New entries start unreferenced —
    /// they earn their second chance by being hit. First-writer-wins on
    /// races: a duplicate insert (two workers solving the same key
    /// concurrently) keeps the existing entry so later hits stay consistent
    /// with earlier responses.
    pub fn insert(&self, key: CacheKey, value: CachedResult) {
        let mut inner = self.shard(&key).lock_unpoisoned();
        if inner.map.contains_key(&key) {
            return;
        }
        if inner.ring.len() < inner.capacity {
            let slot = inner.ring.len();
            inner.ring.push(Slot { key: key.clone(), value, referenced: false });
            inner.map.insert(key, slot);
        } else {
            let slot = inner.evict_one();
            inner.ring[slot] = Slot { key: key.clone(), value, referenced: false };
            inner.map.insert(key, slot);
        }
    }

    /// Number of live entries, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock_unpoisoned().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live `(key, result)` pair, in shard order then insertion/ring
    /// order — the export [`crate::journal::SolutionSnapshot`] serializes.
    /// A full-cache export clones every entry; snapshotting is expected at
    /// checkpoint cadence, not per job.
    pub fn entries(&self) -> Vec<(CacheKey, CachedResult)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let inner = shard.lock_unpoisoned();
            for slot in &inner.ring {
                out.push((slot.key.clone(), slot.value.clone()));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Single-flight: in-flight duplicate suppression ahead of the cache.
// ---------------------------------------------------------------------------

/// How a follower's park resolved.
pub(crate) enum FlightResolution {
    /// The leader finished; serve its result.
    Served(CachedResult),
    /// The leader failed deterministically (routing error); the duplicate
    /// would have failed identically.
    Failed(JobError),
    /// The leader disappeared without publishing (it panicked); the
    /// follower must retry from the top — it may become the new leader.
    Abandoned,
}

enum FlightState {
    Pending,
    /// Boxed: the result dwarfs the other variants and most flights spend
    /// their lifetime `Pending`.
    Done(Box<Result<CachedResult, JobError>>),
    Abandoned,
}

/// One in-flight solve: the completion cell duplicates park on.
pub(crate) struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self { state: Mutex::new(FlightState::Pending), done: Condvar::new() }
    }

    /// Parks until the leader publishes or abandons.
    pub(crate) fn wait(&self) -> FlightResolution {
        let mut state = self.state.lock_unpoisoned();
        loop {
            match &*state {
                FlightState::Pending => state = self.done.wait_unpoisoned(state),
                FlightState::Done(outcome) => {
                    return match outcome.as_ref() {
                        Ok(cached) => FlightResolution::Served(cached.clone()),
                        Err(err) => FlightResolution::Failed(err.clone()),
                    }
                }
                FlightState::Abandoned => return FlightResolution::Abandoned,
            }
        }
    }

    fn publish(&self, state: FlightState) {
        *self.state.lock_unpoisoned() = state;
        self.done.notify_all();
    }
}

/// Whether a job leads its flight or coalesces onto an existing one.
pub(crate) enum FlightRole<'t> {
    /// First arrival: the caller must solve and then
    /// [`FlightLease::publish`] (or drop the lease on panic, which wakes
    /// followers with [`FlightResolution::Abandoned`]).
    Leader(FlightLease<'t>),
    /// A leader is already solving this key: park on its flight.
    Follower(Arc<Flight>),
}

/// The in-flight table: at most one leader per [`CacheKey`].
pub(crate) struct FlightTable {
    map: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

impl FlightTable {
    pub(crate) fn new() -> Self {
        Self { map: Mutex::new(HashMap::new()) }
    }

    /// Registers the caller as the leader for `key`, or returns the
    /// existing in-flight [`Flight`] to park on.
    pub(crate) fn join_or_lead(&self, key: CacheKey) -> FlightRole<'_> {
        let mut map = self.map.lock_unpoisoned();
        match map.entry(key.clone()) {
            Entry::Occupied(entry) => FlightRole::Follower(Arc::clone(entry.get())),
            Entry::Vacant(entry) => {
                let flight = Arc::new(Flight::new());
                entry.insert(Arc::clone(&flight));
                FlightRole::Leader(FlightLease { table: self, flight, key, resolved: false })
            }
        }
    }
}

/// A leader's registration in the [`FlightTable`]. Publishing (or dropping,
/// for the panic path) removes its key and wakes all parked followers
/// exactly once.
pub(crate) struct FlightLease<'t> {
    table: &'t FlightTable,
    flight: Arc<Flight>,
    key: CacheKey,
    resolved: bool,
}

impl FlightLease<'_> {
    /// Publishes the flight's outcome to every parked follower and
    /// deregisters its key. Call *after* inserting a successful result into
    /// the cache, so a duplicate arriving post-deregistration hits the cache.
    pub(crate) fn publish(mut self, outcome: Result<CachedResult, JobError>) {
        self.resolve(FlightState::Done(Box::new(outcome)));
    }

    fn resolve(&mut self, state: FlightState) {
        if self.resolved {
            return;
        }
        self.resolved = true;
        self.table.map.lock_unpoisoned().remove(&self.key);
        self.flight.publish(state);
    }
}

impl Drop for FlightLease<'_> {
    /// A lease dropped without publishing means the leader panicked
    /// mid-solve: followers wake with [`FlightResolution::Abandoned`] and
    /// retry instead of parking forever.
    fn drop(&mut self) {
        self.resolve(FlightState::Abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdm_core::problem::Decoded;

    fn report(tag: &str) -> PipelineReport {
        PipelineReport {
            problem: tag.to_string(),
            solver: "exact".to_string(),
            n_vars: 2,
            max_subproblem_vars: 2,
            components: 1,
            presolve_fixed: 0,
            bits: vec![true, false],
            energy: -1.0,
            decoded: Decoded { feasible: true, objective: -1.0, summary: tag.into() },
            evaluations: 4,
            seconds: 0.0,
        }
    }

    fn entry(tag: &str, backend: &str) -> CachedResult {
        let report = report(tag);
        CachedResult { canonical_bits: report.bits.clone(), report, backend: backend.into() }
    }

    fn key(fp: u64) -> CacheKey {
        CacheKey::new("p".into(), fp, &PipelineOptions::default(), 7, None)
    }

    #[test]
    fn hit_returns_inserted_report() {
        let cache = ResultCache::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), entry("a", "exact"));
        let hit = cache.get(&key(1)).expect("hit");
        assert_eq!(hit.report.problem, "a");
        assert_eq!(hit.backend, "exact");
        assert_eq!(hit.canonical_bits, vec![true, false]);
    }

    #[test]
    fn distinct_options_seeds_and_backends_do_not_collide() {
        let opts = PipelineOptions::default();
        let presolve = PipelineOptions { presolve: true, ..Default::default() };
        let a = CacheKey::new("mqo".into(), 1, &opts, 7, None);
        let b = CacheKey::new("mqo".into(), 1, &presolve, 7, None);
        let c = CacheKey::new("mqo".into(), 1, &opts, 8, None);
        let d = CacheKey::new("mqo".into(), 1, &opts, 7, Some("tabu"));
        let e = CacheKey::new("join".into(), 1, &opts, 7, None);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e, "same QUBO, different problem type: distinct entries");
    }

    #[test]
    fn priority_does_not_split_cache_keys() {
        use qdm_core::pipeline::JobPriority;
        let normal = PipelineOptions::default();
        let high = PipelineOptions { priority: JobPriority::High, ..Default::default() };
        assert_eq!(
            CacheKey::new("mqo".into(), 1, &normal, 7, None),
            CacheKey::new("mqo".into(), 1, &high, 7, None),
            "priority is scheduling-only; results are identical across levels"
        );
    }

    #[test]
    fn clock_eviction_bounds_size() {
        let cache = ResultCache::new(2);
        assert_eq!(cache.shard_count(), 1, "tiny caches stay unsharded");
        for fp in 0..5u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(0)).is_none(), "untouched entries evicted in insertion order");
        assert!(cache.get(&key(4)).is_some(), "newest entry retained");
    }

    #[test]
    fn hot_entry_survives_an_eviction_cycle_fifo_would_drop_it_in() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), entry("hot", "e"));
        cache.insert(key(2), entry("cold", "e"));
        // The hot fingerprint keeps hitting; under FIFO that would not
        // matter — key(1) is the oldest insertion and the next insert would
        // evict it.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), entry("new", "e"));
        assert!(cache.get(&key(1)).is_some(), "second chance must spare the hot entry");
        assert!(cache.get(&key(2)).is_none(), "the unreferenced entry is evicted instead");
        assert!(cache.get(&key(3)).is_some());
        // The spared entry's second chance is spent: with no further hits it
        // is next out.
        cache.insert(key(4), entry("newer", "e"));
        assert!(cache.get(&key(1)).is_none(), "a second chance is not immortality");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sharding_caps_at_max_shards_and_preserves_total_capacity() {
        let cache = ResultCache::new(1024);
        assert_eq!(cache.shard_count(), MAX_SHARDS);
        // 1024 entries spread over 16 shards of 64: nothing evicted yet.
        for fp in 0..1024u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        assert_eq!(cache.len(), 1024);
        // One more per shard rolls the oldest of each shard out.
        for fp in 1024..1040u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        assert_eq!(cache.len(), 1024, "total stays at capacity");
        for fp in 0..16u64 {
            assert!(cache.get(&key(fp)).is_none(), "fp {fp} was each shard's oldest");
        }
    }

    #[test]
    fn first_writer_wins_on_duplicate_insert() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), entry("first", "e"));
        cache.insert(key(1), entry("second", "e"));
        assert_eq!(cache.get(&key(1)).unwrap().report.problem, "first");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_capacities_sum_to_exactly_the_configured_capacity() {
        // 1000 / 64 → 15 shards; a flat 1000/15 = 66 per shard would hold
        // only 990 entries. The remainder must be spread across shards.
        for capacity in [1, 2, 17, 63, 64, 100, 777, 1000, 1024, 4096, 4099] {
            let cache = ResultCache::new(capacity);
            assert_eq!(cache.capacity(), capacity, "capacity {capacity} must round-trip");
        }
    }

    #[test]
    fn a_1000_entry_cache_actually_holds_1000_entries() {
        let cache = ResultCache::new(1000);
        assert_eq!(cache.shard_count(), 15);
        for fp in 0..1000u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        // Sequential fingerprints land `fp % 15` and fill shard s with 67
        // entries for s < 10 and 66 for s ≥ 10 — exactly the remainder
        // distribution — so nothing may have been evicted.
        assert_eq!(cache.len(), 1000, "no entry of the first 1000 may be evicted");
        for fp in 1000..3000u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        assert_eq!(cache.len(), 1000, "the total stays pinned at capacity under churn");
    }

    #[test]
    fn flight_table_has_one_leader_per_key_and_reopens_after_publish() {
        let table = FlightTable::new();
        let lease = match table.join_or_lead(key(7)) {
            FlightRole::Leader(lease) => lease,
            FlightRole::Follower(_) => panic!("first arrival must lead"),
        };
        let follower = match table.join_or_lead(key(7)) {
            FlightRole::Follower(flight) => flight,
            FlightRole::Leader(_) => panic!("second arrival must coalesce"),
        };
        lease.publish(Ok(entry("led", "e")));
        match follower.wait() {
            FlightResolution::Served(cached) => assert_eq!(cached.report.problem, "led"),
            _ => panic!("published flight must serve its followers"),
        }
        // The key is deregistered: the next arrival leads a fresh flight.
        assert!(matches!(table.join_or_lead(key(7)), FlightRole::Leader(_)));
    }

    #[test]
    fn dropping_a_lease_without_publishing_abandons_followers() {
        let table = FlightTable::new();
        let lease = match table.join_or_lead(key(9)) {
            FlightRole::Leader(lease) => lease,
            FlightRole::Follower(_) => panic!("first arrival must lead"),
        };
        let follower = match table.join_or_lead(key(9)) {
            FlightRole::Follower(flight) => flight,
            FlightRole::Leader(_) => panic!("second arrival must coalesce"),
        };
        drop(lease); // the panic path: no publish
        assert!(matches!(follower.wait(), FlightResolution::Abandoned));
        assert!(matches!(table.join_or_lead(key(9)), FlightRole::Leader(_)));
    }
}
