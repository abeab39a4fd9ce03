//! The seeded job stream: Table I problems from `qdm-problems` at mixed
//! sizes, with exact and permuted resubmissions, tenants and priorities.
//!
//! Every random choice flows from one generator seeded by `--seed`, so a
//! seed fixes the whole stream: the same seed gives the same jobs in the
//! same order, traced or not. Sizes are drawn log-uniformly in stratified
//! blocks and families in shuffled blocks, so two seeds differ in which
//! instances they draw but hardly in how much work of each kind they hold.

use crate::layers::Tracing;
use qdm_core::pipeline::JobPriority;
use qdm_core::problem::{Decoded, DmProblem};
use qdm_db::query::{GraphShape, QueryGraph};
use qdm_db::txn::random_workload;
use qdm_problems::joinorder::JoinOrderProblem;
use qdm_problems::mqo::{MqoInstance, MqoProblem};
use qdm_problems::schema::{generate_benchmark, SchemaMatchingProblem};
use qdm_problems::txn_schedule::TxnScheduleProblem;
use qdm_qubo::model::QuboModel;
use qdm_runtime::service::SharedProblem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Size draws come in blocks of this many strata of the log-size range.
const STRATA: usize = 16;

/// Size buckets of the stream composition.
const BUCKETS: [&str; 4] = ["8-16", "17-64", "65-128", "129-256"];

/// The admission tenant name of tenant `index`.
pub fn tenant_name(index: usize) -> String {
    format!("tenant-{index}")
}

/// The four Table I families the stream draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    Mqo,
    JoinOrder,
    TxnSchedule,
    SchemaMatch,
}

impl Family {
    const ALL: [Family; 4] =
        [Family::Mqo, Family::JoinOrder, Family::TxnSchedule, Family::SchemaMatch];

    fn name(self) -> &'static str {
        match self {
            Family::Mqo => "mqo",
            Family::JoinOrder => "join-order",
            Family::TxnSchedule => "txn-schedule",
            Family::SchemaMatch => "schema-match",
        }
    }

    /// An instance of about `target` variables. The families' size
    /// parameters are integers, so the realised count is the nearest one
    /// each family reaches (8–256 targets give 8–256 variables).
    fn build(self, target: usize, rng: &mut StdRng) -> SharedProblem {
        let side = (target as f64).sqrt().ceil() as usize;
        match self {
            Family::Mqo => {
                let queries = target.div_ceil(4).max(2);
                // About eight sharing partners per plan at every size.
                let sharing = (8.0 / (queries * 4) as f64).min(0.3);
                Arc::new(MqoProblem::new(MqoInstance::generate(queries, 4, sharing, rng)))
            }
            Family::JoinOrder => {
                let shapes = [GraphShape::Chain, GraphShape::Star, GraphShape::Cycle];
                let shape = shapes[rng.random_range(0..shapes.len())];
                let graph = QueryGraph::generate(shape, side.clamp(3, 16), rng);
                Arc::new(if rng.random_bool(0.5) {
                    JoinOrderProblem::left_deep(graph)
                } else {
                    JoinOrderProblem::bushy(graph)
                })
            }
            Family::TxnSchedule => {
                let horizon = side.clamp(3, 16);
                let txns = target.div_ceil(horizon).max(2);
                let workload = random_workload(txns, 3 * txns, 2, 0.4, rng);
                Arc::new(TxnScheduleProblem::new(workload, horizon))
            }
            Family::SchemaMatch => {
                let attributes = side.clamp(2, 12);
                let noise = (target / attributes).saturating_sub(attributes);
                let (instance, _truth) = generate_benchmark(attributes, noise, rng);
                Arc::new(SchemaMatchingProblem::new(instance))
            }
        }
    }
}

/// How a job relates to earlier jobs of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A fresh instance.
    Original,
    /// The same problem object and seed as stream job `root`.
    Exact { root: usize },
    /// Stream job `root` with its variables relabeled, and the same seed.
    Permuted { root: usize },
}

/// One job of the stream.
pub struct Job {
    /// What is submitted (behind a timer in the traced run).
    pub problem: SharedProblem,
    pub n_vars: usize,
    pub seed: u64,
    pub origin: Origin,
    pub tenant: usize,
    pub priority: JobPriority,
}

impl Job {
    /// The stream index of the original this job repeats; for an original,
    /// its own index `index`.
    pub fn root(&self, index: usize) -> usize {
        match self.origin {
            Origin::Original => index,
            Origin::Exact { root } | Origin::Permuted { root } => root,
        }
    }
}

/// What a stream holds.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub min_vars: usize,
    pub max_vars: usize,
    pub exact_share: f64,
    pub permuted_share: f64,
    /// Resubmissions repeat one of the last `recent` originals.
    pub recent: usize,
    /// With one tenant every job runs at `Normal` priority; with more, a
    /// job is `High` with probability `high_share` and `Low` otherwise.
    pub tenants: usize,
    pub high_share: f64,
}

impl StreamSpec {
    /// The same stream without resubmissions.
    pub fn originals_only(self) -> Self {
        Self { exact_share: 0.0, permuted_share: 0.0, ..self }
    }
}

/// A recent original, kept for resubmission.
struct Recent {
    root: usize,
    /// The unwrapped problem, for building relabeled copies.
    base: SharedProblem,
    /// The problem as submitted, for exact resubmission.
    submitted: SharedProblem,
    family: Family,
    seed: u64,
}

/// Produces the stream one job at a time.
pub struct Generator {
    spec: StreamSpec,
    rng: StdRng,
    tracing: Option<Tracing>,
    recent: VecDeque<Recent>,
    families: Vec<Family>,
    strata: Vec<usize>,
    produced: usize,
    composition: Composition,
}

impl Generator {
    /// The stream for `seed`. With `tracing`, every submitted problem is
    /// wrapped in its timer; the jobs themselves do not change.
    pub fn new(seed: u64, spec: StreamSpec, tracing: Option<Tracing>) -> Self {
        Self {
            spec,
            rng: StdRng::seed_from_u64(seed),
            tracing,
            recent: VecDeque::new(),
            families: Vec::new(),
            strata: Vec::new(),
            produced: 0,
            composition: Composition::default(),
        }
    }

    pub fn next_job(&mut self) -> Job {
        let index = self.produced;
        self.produced += 1;
        let (tenant, priority) = if self.spec.tenants > 1 {
            let tenant = self.rng.random_range(0..self.spec.tenants);
            let high = self.rng.random_bool(self.spec.high_share);
            (tenant, if high { JobPriority::High } else { JobPriority::Low })
        } else {
            (0, JobPriority::Normal)
        };
        let roll: f64 = self.rng.random();
        let resubmit = self.spec.exact_share + self.spec.permuted_share;
        let (family, job) = if self.recent.is_empty() || roll >= resubmit {
            self.original(index, tenant, priority)
        } else {
            let recent = &self.recent[self.rng.random_range(0..self.recent.len())];
            let (problem, origin) = if roll < self.spec.exact_share {
                (Arc::clone(&recent.submitted), Origin::Exact { root: recent.root })
            } else {
                let perm = random_permutation(recent.base.n_vars(), &mut self.rng);
                let relabeled = Arc::new(Permuted { inner: Arc::clone(&recent.base), perm });
                (self.submitted(relabeled), Origin::Permuted { root: recent.root })
            };
            let job = Job {
                problem,
                n_vars: recent.base.n_vars(),
                seed: recent.seed,
                origin,
                tenant,
                priority,
            };
            (recent.family, job)
        };
        self.composition.add(family, &job);
        job
    }

    fn original(&mut self, index: usize, tenant: usize, priority: JobPriority) -> (Family, Job) {
        if self.families.is_empty() {
            self.families = Family::ALL.to_vec();
            shuffle(&mut self.families, &mut self.rng);
        }
        let family = self.families.pop().expect("refilled when empty");
        if self.strata.is_empty() {
            self.strata = (0..STRATA).collect();
            shuffle(&mut self.strata, &mut self.rng);
        }
        let stratum = self.strata.pop().expect("refilled when empty");
        let u = (stratum as f64 + self.rng.random::<f64>()) / STRATA as f64;
        let (lo, hi) = ((self.spec.min_vars as f64).ln(), (self.spec.max_vars as f64).ln());
        let target = (lo + u * (hi - lo)).exp().round() as usize;
        let base = family.build(target, &mut self.rng);
        let seed = self.rng.random::<u64>();
        let submitted = self.submitted(Arc::clone(&base));
        if self.spec.recent > 0 {
            if self.recent.len() == self.spec.recent {
                self.recent.pop_front();
            }
            self.recent.push_back(Recent {
                root: index,
                base: Arc::clone(&base),
                submitted: Arc::clone(&submitted),
                family,
                seed,
            });
        }
        let job = Job {
            problem: submitted,
            n_vars: base.n_vars(),
            seed,
            origin: Origin::Original,
            tenant,
            priority,
        };
        (family, job)
    }

    fn submitted(&self, problem: SharedProblem) -> SharedProblem {
        match &self.tracing {
            Some(tracing) => tracing.problem(problem),
            None => problem,
        }
    }

    /// What the jobs produced so far hold.
    pub fn into_composition(self) -> Composition {
        self.composition
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    shuffle(&mut perm, rng);
    perm
}

/// A relabeled resubmission: the same instance with its variables
/// permuted. `to_qubo` relabels the inner encoding; `decode` and `repair`
/// map bits back to the inner labeling first, so the answer in problem
/// terms is the inner problem's own.
struct Permuted {
    inner: SharedProblem,
    /// `perm[inner_var]` is that variable's index in this labeling.
    perm: Vec<usize>,
}

impl Permuted {
    fn inner_bits(&self, bits: &[bool]) -> Vec<bool> {
        self.perm.iter().map(|&p| bits[p]).collect()
    }

    fn outer_bits(&self, inner_bits: &[bool]) -> Vec<bool> {
        let mut bits = vec![false; self.perm.len()];
        for (&p, &bit) in self.perm.iter().zip(inner_bits) {
            bits[p] = bit;
        }
        bits
    }
}

impl DmProblem for Permuted {
    /// The inner name: a relabeling is the same problem, and the result
    /// cache keys on the name.
    fn name(&self) -> String {
        self.inner.name()
    }

    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }

    fn to_qubo(&self) -> QuboModel {
        let inner = self.inner.to_qubo();
        let mut model = QuboModel::new(inner.n_vars());
        model.add_offset(inner.offset());
        for (i, &p) in self.perm.iter().enumerate() {
            model.add_linear(p, inner.linear(i));
        }
        for ((i, j), w) in inner.quadratic_iter() {
            model.add_quadratic(self.perm[i], self.perm[j], w);
        }
        model
    }

    fn decode(&self, bits: &[bool]) -> Decoded {
        self.inner.decode(&self.inner_bits(bits))
    }

    fn repair(&self, bits: &[bool]) -> Vec<bool> {
        self.outer_bits(&self.inner.repair(&self.inner_bits(bits)))
    }
}

/// The stream's make-up, printed with every run.
#[derive(Default)]
pub struct Composition {
    jobs: usize,
    cells: BTreeMap<(Family, &'static str), usize>,
    exact: usize,
    permuted: usize,
    tenants: BTreeMap<usize, usize>,
    priorities: BTreeMap<&'static str, usize>,
}

impl Composition {
    fn add(&mut self, family: Family, job: &Job) {
        self.jobs += 1;
        let bucket = match job.n_vars {
            0..=16 => BUCKETS[0],
            17..=64 => BUCKETS[1],
            65..=128 => BUCKETS[2],
            _ => BUCKETS[3],
        };
        *self.cells.entry((family, bucket)).or_default() += 1;
        match job.origin {
            Origin::Original => {}
            Origin::Exact { .. } => self.exact += 1,
            Origin::Permuted { .. } => self.permuted += 1,
        }
        *self.tenants.entry(job.tenant).or_default() += 1;
        let priority = match job.priority {
            JobPriority::High => "high",
            JobPriority::Normal => "normal",
            JobPriority::Low => "low",
        };
        *self.priorities.entry(priority).or_default() += 1;
    }

    pub fn print(&self) {
        println!("stream.jobs {}", self.jobs);
        for family in Family::ALL {
            let cells: Vec<String> = BUCKETS
                .iter()
                .map(|&b| format!("{b}={}", self.cells.get(&(family, b)).copied().unwrap_or(0)))
                .collect();
            println!("stream.family {} {}", family.name(), cells.join(" "));
        }
        let share = |n: usize| 100.0 * n as f64 / self.jobs.max(1) as f64;
        println!(
            "stream.resubmissions exact={:.1}% permuted={:.1}%",
            share(self.exact),
            share(self.permuted)
        );
        let tenants: Vec<String> =
            self.tenants.iter().map(|(&t, n)| format!("{}={n}", tenant_name(t))).collect();
        println!("stream.tenants {}", tenants.join(" "));
        let priorities: Vec<String> =
            self.priorities.iter().map(|(p, n)| format!("{p}={n}")).collect();
        println!("stream.priorities {}", priorities.join(" "));
    }
}
