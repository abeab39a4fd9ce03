//! The three workloads: what each stream holds, what it runs on, and how
//! load reaches it. `README.md` beside this crate gives the reasons.
//!
//! Every workload runs two worker threads in total, so on a two-core host
//! the workers never oversubscribe the cores; the one client thread shares
//! them.

use crate::stream::StreamSpec;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotResubmit,
    ColdLarge,
    TenantMix,
}

/// The system under load.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A direct `SolverService` with `workers` worker threads.
    Direct { workers: usize },
    /// A `ClusterService` of `shards` one-worker shards.
    Cluster { shards: usize },
}

/// Everything a workload fixes.
pub struct Config {
    pub stream: StreamSpec,
    pub shape: Shape,
    /// Jobs kept in flight by the closed loop: the next job is submitted
    /// when one completes.
    pub window: usize,
    /// Each service (each shard, in a cluster) journals to a `FileJournal`.
    pub journal: bool,
    /// Result-cache entries per service.
    pub cache_capacity: usize,
    /// Jobs solved during set-up, before anything is measured.
    pub warmup_jobs: usize,
    /// The backend every job is pinned to; `None` auto-routes.
    pub backend: Option<&'static str>,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        [Self::HotResubmit, Self::ColdLarge, Self::TenantMix].into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::HotResubmit => "hot-resubmit",
            Self::ColdLarge => "cold-large",
            Self::TenantMix => "tenant-mix",
        }
    }

    pub fn config(self) -> Config {
        match self {
            // The reuse path: 70% of jobs repeat one of the last 48 originals,
            // every one of which is still cached.
            Self::HotResubmit => Config {
                stream: StreamSpec {
                    min_vars: 8,
                    max_vars: 64,
                    exact_share: 0.35,
                    permuted_share: 0.35,
                    recent: 48,
                    tenants: 1,
                    high_share: 0.0,
                },
                shape: Shape::Direct { workers: 2 },
                window: 8,
                journal: true,
                cache_capacity: 4096,
                warmup_jobs: 256,
                // Auto-routing at these sizes settles, per run, on serial or
                // on parallel annealing, whichever early calibration noise
                // favours, and the two regimes differ by a third in
                // throughput. Pinned, the misses cost the same every run and
                // the reuse path is what moves; the other workloads route.
                backend: Some("simulated-annealing"),
            },
            // The solve path: every job is new and large, so the cache is
            // only written and the journal is off.
            Self::ColdLarge => Config {
                stream: StreamSpec {
                    min_vars: 128,
                    max_vars: 256,
                    exact_share: 0.0,
                    permuted_share: 0.0,
                    recent: 0,
                    tenants: 1,
                    high_share: 0.0,
                },
                shape: Shape::Direct { workers: 2 },
                window: 4,
                journal: false,
                cache_capacity: 4096,
                warmup_jobs: 32,
                backend: None,
            },
            // Multi-tenant load on a cluster: the tenant buckets admit it
            // all, and each shard caches fewer models than the stream
            // holds, so some resubmissions arrive after their entry was
            // evicted.
            Self::TenantMix => Config {
                stream: StreamSpec {
                    min_vars: 8,
                    max_vars: 256,
                    exact_share: 0.15,
                    permuted_share: 0.15,
                    recent: 128,
                    tenants: 3,
                    high_share: 0.3,
                },
                shape: Shape::Cluster { shards: 2 },
                window: 8,
                journal: true,
                cache_capacity: 48,
                warmup_jobs: 128,
                // Pinned for the reason `hot-resubmit` is: with one router
                // per shard, each shard settles on its own annealing regime.
                backend: Some("simulated-annealing"),
            },
        }
    }
}
