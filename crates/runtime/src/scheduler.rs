//! Deterministic fair scheduling for the service queue: priority lanes with
//! pop-counted aging and per-session subqueues served deficit-round-robin.
//!
//! The original `JobQueues` (one FIFO per priority lane, drained strictly
//! High → Normal → Low) had two live scheduling bugs this module fixes:
//!
//! 1. **Priority starvation** — `pop()` drained lanes strictly
//!    highest-first, so sustained High traffic starved the Low lane forever.
//!    Now every pop that serves a lane while a *lower* lane has waiting jobs
//!    ages the bypassed lane by one; once a lane has been passed over
//!    [`AGE_AFTER_POPS`] times, its next job is served regardless of
//!    higher-priority pressure, and its age restarts. The aging clock is
//!    pops, not wall time, so schedules are reproducible: under sustained
//!    High submissions the job at the head of the Low lane is served within
//!    `AGE_AFTER_POPS + 1` pops, and a backlogged lane is guaranteed
//!    `1/(AGE_AFTER_POPS + 1)` of pop bandwidth.
//! 2. **Session monopoly** — all sessions shared one FIFO per lane, so a
//!    single session with a deep queue monopolized every worker. Each lane
//!    now keeps one subqueue per [`crate::submit::Session`] and serves them
//!    deficit-round-robin: each rotation grants a subqueue [`DRR_QUANTUM`]
//!    credit, and serving a job spends credit equal to the job's cost (its
//!    **predicted solve time in microseconds**, quoted by the calibrated
//!    cost model — see [`crate::cost`]), so a session submitting many or
//!    expensive jobs interleaves fairly with light ones instead of
//!    walling them off: fairness meters seconds of backend time, not job
//!    counts or raw variable counts. Within one service there is nothing
//!    to steal: every worker pops this one shared queue, so an idle worker
//!    serves whichever session has queued work. That stops at the shard
//!    boundary — across a cluster's shards, idle workers pull from their
//!    peers' queues instead (see [`crate::cluster`]).
//!
//! [`SchedulerPolicy::StrictPriority`] keeps the original
//! drain-highest-first single-FIFO behavior, both for deployments that
//! genuinely want strict lanes (and accept starvation) and as the baseline
//! the `runtime/fairness` bench measures the long-tail latency gap against.
//!
//! Everything here is driven under the service's single queue mutex; the
//! scheduler itself holds no locks and no clocks, so a fixed sequence of
//! `push`/`pop`/`remove` calls always yields the same job order.

use crate::service::QueuedJob;
use qdm_core::pipeline::JobPriority;
use std::collections::VecDeque;

/// How many pops a non-empty lane tolerates being bypassed by
/// higher-priority lanes before its next job is served unconditionally.
/// Counted in pops — never wall-clock — so scheduling stays deterministic.
pub const AGE_AFTER_POPS: u64 = 16;

/// Credit (in units of job cost — predicted microseconds of backend
/// time) a session's subqueue earns each time the deficit-round-robin
/// rotation passes over it. Costs far above the quantum are handled by
/// the arithmetic stall-lap fast-forward in the DRR loop, so a small
/// quantum keeps cheap-job interleaving tight without making expensive
/// jobs slow to schedule.
pub const DRR_QUANTUM: u64 = 16;

/// Which queueing discipline the service runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Priority lanes with deterministic aging (no lane starves) and
    /// per-session deficit-round-robin inside each lane (no session
    /// monopolizes the pool). The default.
    #[default]
    FairShare,
    /// The legacy discipline: one FIFO per lane, drained strictly
    /// High → Normal → Low with no aging and no per-session fairness.
    /// Sustained High traffic starves Low forever and one deep session
    /// walls off the others; kept for comparison and for callers that
    /// explicitly want strict lanes.
    StrictPriority,
}

/// The service queue under either [`SchedulerPolicy`], maintaining a
/// running total of the queued jobs' predicted cost. Every enqueue path
/// (submission, retry re-queue, migration, failover drain, recovery
/// replay) funnels through [`JobScheduler::push`]/[`JobScheduler::pop`],
/// so the backlog gauge survives cross-shard job movement without any
/// caller-side bookkeeping.
pub(crate) struct JobScheduler {
    inner: SchedulerImpl,
    /// Sum of queued jobs' [`QueuedJob::cost`] (predicted microseconds of
    /// backend time): the estimated seconds of work sitting in this
    /// queue, which load shedding and `retry_after_hint` are derived
    /// from.
    backlog_micros: u64,
}

enum SchedulerImpl {
    Fair(FairScheduler),
    Strict(StrictQueues),
}

impl JobScheduler {
    pub(crate) fn new(policy: SchedulerPolicy) -> Self {
        let inner = match policy {
            SchedulerPolicy::FairShare => SchedulerImpl::Fair(FairScheduler::new()),
            SchedulerPolicy::StrictPriority => SchedulerImpl::Strict(StrictQueues::new()),
        };
        Self { inner, backlog_micros: 0 }
    }

    pub(crate) fn push(&mut self, job: QueuedJob) {
        self.backlog_micros = self.backlog_micros.saturating_add(job.cost);
        match &mut self.inner {
            SchedulerImpl::Fair(s) => s.push(job),
            SchedulerImpl::Strict(s) => s.push(job),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedJob> {
        let job = match &mut self.inner {
            SchedulerImpl::Fair(s) => s.pop(),
            SchedulerImpl::Strict(s) => s.pop(),
        };
        if let Some(job) = &job {
            self.backlog_micros = self.backlog_micros.saturating_sub(job.cost);
        }
        job
    }

    /// Removes a queued job by id (for cancellation); `None` if a worker
    /// already picked it up or it never existed.
    pub(crate) fn remove(&mut self, id: u64) -> Option<QueuedJob> {
        let job = match &mut self.inner {
            SchedulerImpl::Fair(s) => s.remove(id),
            SchedulerImpl::Strict(s) => s.remove(id),
        };
        if let Some(job) = &job {
            self.backlog_micros = self.backlog_micros.saturating_sub(job.cost);
        }
        job
    }

    /// Predicted microseconds of backend time currently queued.
    pub(crate) fn backlog_micros(&self) -> u64 {
        self.backlog_micros
    }
}

/// High → 0, Normal → 1, Low → 2: pop order.
fn lane_index(priority: JobPriority) -> usize {
    match priority {
        JobPriority::High => 0,
        JobPriority::Normal => 1,
        JobPriority::Low => 2,
    }
}

/// One session's FIFO within a lane, with its deficit-round-robin credit.
struct SessionQueue {
    session: u64,
    deficit: u64,
    jobs: VecDeque<QueuedJob>,
}

/// One priority lane: the round-robin rotation of per-session subqueues
/// (front = currently served) plus the lane's aging counter. Subqueues are
/// never empty — a drained session leaves the rotation (and its credit)
/// until it submits again, the standard DRR rule that keeps idle sessions
/// from banking unbounded credit.
struct Lane {
    sessions: VecDeque<SessionQueue>,
    /// Pops served from higher-priority lanes while this lane had jobs
    /// waiting; reset every time this lane is served.
    passed_over: u64,
}

impl Lane {
    fn new() -> Self {
        Self { sessions: VecDeque::new(), passed_over: 0 }
    }

    fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    fn push(&mut self, job: QueuedJob) {
        let session = job.session.id();
        match self.sessions.iter_mut().find(|sq| sq.session == session) {
            Some(sq) => sq.jobs.push_back(job),
            None => {
                let mut jobs = VecDeque::new();
                jobs.push_back(job);
                self.sessions.push_back(SessionQueue { session, deficit: 0, jobs });
            }
        }
    }

    /// Deficit-round-robin pickup: the front subqueue serves jobs while its
    /// credit covers their cost, then rotates to the back with
    /// [`DRR_QUANTUM`] fresh credit. When a whole lap grants every session
    /// a quantum and still nobody can afford their head job (huge models),
    /// the remaining stall laps are fast-forwarded arithmetically — a
    /// uniform `k × DRR_QUANTUM` top-up for the minimal `k` that unblocks
    /// someone — so a pop costs O(sessions), never O(cost / quantum)
    /// rotations, while the whole lane sits under the service queue mutex.
    fn pop_drr(&mut self) -> Option<QueuedJob> {
        loop {
            for _ in 0..self.sessions.len() {
                let front = self.sessions.front_mut()?;
                let cost = front.jobs.front().expect("subqueues are never empty").cost;
                if front.deficit >= cost {
                    front.deficit -= cost;
                    let job = front.jobs.pop_front().expect("nonempty");
                    if front.jobs.is_empty() {
                        self.sessions.pop_front();
                    }
                    return Some(job);
                }
                let mut rotated = self.sessions.pop_front().expect("front exists");
                rotated.deficit = rotated.deficit.saturating_add(DRR_QUANTUM);
                self.sessions.push_back(rotated);
            }
            self.sessions.front()?;
            // A full unproductive lap: grant every session the minimal
            // number of whole laps' credit that makes some head affordable
            // (0 when the lap's own grants already unblocked one).
            let stall_laps = self
                .sessions
                .iter()
                .map(|sq| {
                    let cost = sq.jobs.front().expect("subqueues are never empty").cost;
                    cost.saturating_sub(sq.deficit).div_ceil(DRR_QUANTUM)
                })
                .min()
                .expect("lane has sessions");
            if stall_laps > 0 {
                for sq in &mut self.sessions {
                    sq.deficit = sq.deficit.saturating_add(stall_laps * DRR_QUANTUM);
                }
            }
        }
    }

    fn remove(&mut self, id: u64) -> Option<QueuedJob> {
        for si in 0..self.sessions.len() {
            if let Some(pos) = self.sessions[si].jobs.iter().position(|job| job.id == id) {
                let job = self.sessions[si].jobs.remove(pos).expect("position exists");
                if self.sessions[si].jobs.is_empty() {
                    self.sessions.remove(si);
                }
                if self.sessions.is_empty() {
                    // An emptied lane has nobody waiting: its age must not
                    // leak onto a job pushed much later, or that job would
                    // be served "pre-aged" without the documented
                    // AGE_AFTER_POPS bypasses ever happening.
                    self.passed_over = 0;
                }
                return Some(job);
            }
        }
        None
    }
}

/// The fair scheduler: three aged lanes of per-session DRR subqueues.
pub(crate) struct FairScheduler {
    lanes: [Lane; 3],
}

impl FairScheduler {
    pub(crate) fn new() -> Self {
        Self { lanes: [Lane::new(), Lane::new(), Lane::new()] }
    }

    pub(crate) fn push(&mut self, job: QueuedJob) {
        self.lanes[lane_index(job.spec.options.priority)].push(job);
    }

    /// Serves the highest-priority lane whose age reached
    /// [`AGE_AFTER_POPS`], else the highest-priority non-empty lane; then
    /// ages every non-empty lane below the one served.
    pub(crate) fn pop(&mut self) -> Option<QueuedJob> {
        let aged = (0..3)
            .find(|&l| !self.lanes[l].is_empty() && self.lanes[l].passed_over >= AGE_AFTER_POPS);
        let serve = aged.or_else(|| (0..3).find(|&l| !self.lanes[l].is_empty()))?;
        let job = self.lanes[serve].pop_drr().expect("non-empty lane yields a job");
        self.lanes[serve].passed_over = 0;
        for lane in self.lanes.iter_mut().skip(serve + 1) {
            if !lane.is_empty() {
                lane.passed_over += 1;
            }
        }
        Some(job)
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<QueuedJob> {
        self.lanes.iter_mut().find_map(|lane| lane.remove(id))
    }
}

/// The legacy strict-priority queue: one FIFO per lane, popped
/// highest-priority-first with no aging and no per-session fairness.
pub(crate) struct StrictQueues {
    lanes: [VecDeque<QueuedJob>; 3],
}

impl StrictQueues {
    pub(crate) fn new() -> Self {
        Self { lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()] }
    }

    pub(crate) fn push(&mut self, job: QueuedJob) {
        self.lanes[lane_index(job.spec.options.priority)].push_back(job);
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedJob> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<QueuedJob> {
        for lane in &mut self.lanes {
            if let Some(pos) = lane.iter().position(|job| job.id == id) {
                return lane.remove(pos);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::CompletionSlot;
    use crate::registry::SolverRegistry;
    use crate::service::{JobSpec, ServiceConfig, Shared, SharedProblem, SolverService};
    use crate::submit::SessionCore;
    use qdm_core::problem::{Decoded, DmProblem};
    use qdm_qubo::model::QuboModel;
    use std::sync::{Arc, OnceLock};

    struct Dummy {
        n: usize,
    }

    impl DmProblem for Dummy {
        fn name(&self) -> String {
            "dummy".into()
        }
        fn n_vars(&self) -> usize {
            self.n
        }
        fn to_qubo(&self) -> QuboModel {
            QuboModel::new(self.n)
        }
        fn decode(&self, bits: &[bool]) -> Decoded {
            Decoded { feasible: true, objective: 0.0, summary: format!("{bits:?}") }
        }
    }

    fn session(id: u64) -> Arc<SessionCore> {
        Arc::new(SessionCore::new(id, 1024, 1024))
    }

    /// The shard every test job belongs to: built, never started.
    fn owner() -> Arc<Shared> {
        static OWNER: OnceLock<Arc<Shared>> = OnceLock::new();
        let build = || SolverService::build(SolverRegistry::standard(), ServiceConfig::default());
        Arc::clone(OWNER.get_or_init(build))
    }

    fn job(id: u64, session: &Arc<SessionCore>, priority: JobPriority, n_vars: usize) -> QueuedJob {
        let problem: SharedProblem = Arc::new(Dummy { n: n_vars });
        QueuedJob {
            id,
            owner: owner(),
            cost: n_vars.max(1) as u64,
            queued_ns: 0,
            spec: JobSpec::new(problem, id).with_priority(priority),
            slot: Arc::new(CompletionSlot::new()),
            session: Arc::clone(session),
            route: None,
            retry: None,
            recovered: false,
        }
    }

    fn pop_ids(sched: &mut JobScheduler) -> Vec<u64> {
        let mut ids = Vec::new();
        while let Some(job) = sched.pop() {
            ids.push(job.id);
        }
        ids
    }

    #[test]
    fn strict_policy_preserves_legacy_lane_order() {
        let mut sched = JobScheduler::new(SchedulerPolicy::StrictPriority);
        let s = session(0);
        sched.push(job(0, &s, JobPriority::Normal, 4));
        sched.push(job(1, &s, JobPriority::High, 4));
        sched.push(job(2, &s, JobPriority::Low, 4));
        sched.push(job(3, &s, JobPriority::Normal, 4));
        assert_eq!(pop_ids(&mut sched), vec![1, 0, 3, 2]);
        assert!(sched.pop().is_none());
    }

    #[test]
    fn aged_low_job_is_served_within_the_bound_under_sustained_high_traffic() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let s = session(0);
        for id in 0..100 {
            sched.push(job(id, &s, JobPriority::High, 4));
        }
        sched.push(job(1000, &s, JobPriority::Low, 4));
        let ids = pop_ids(&mut sched);
        // Exactly AGE_AFTER_POPS High pops bypass the Low lane, then its
        // head is forced — the concrete starvation bound.
        assert_eq!(ids[AGE_AFTER_POPS as usize], 1000, "order: {ids:?}");
        assert!(ids[..AGE_AFTER_POPS as usize].iter().all(|&id| id < 100));
    }

    #[test]
    fn low_lane_receives_periodic_bandwidth_not_a_single_pop() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let s = session(0);
        for id in 0..100 {
            sched.push(job(id, &s, JobPriority::High, 4));
        }
        for id in [1000, 1001, 1002] {
            sched.push(job(id, &s, JobPriority::Low, 4));
        }
        let ids = pop_ids(&mut sched);
        let step = AGE_AFTER_POPS as usize;
        // One Low job every AGE_AFTER_POPS + 1 pops: the lane's guaranteed
        // 1/(AGE_AFTER_POPS + 1) share.
        assert_eq!(ids[step], 1000, "order: {ids:?}");
        assert_eq!(ids[2 * step + 1], 1001, "order: {ids:?}");
        assert_eq!(ids[3 * step + 2], 1002, "order: {ids:?}");
    }

    #[test]
    fn aging_escalates_normal_before_low() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let s = session(0);
        for id in 0..60 {
            sched.push(job(id, &s, JobPriority::High, 4));
        }
        sched.push(job(500, &s, JobPriority::Normal, 4));
        sched.push(job(1000, &s, JobPriority::Low, 4));
        let ids = pop_ids(&mut sched);
        // Both lower lanes age together under the High flood; when the
        // threshold trips, the higher-priority starved lane goes first and
        // the Low lane (one pass older now) follows immediately.
        assert_eq!(ids[AGE_AFTER_POPS as usize], 500, "order: {ids:?}");
        assert_eq!(ids[AGE_AFTER_POPS as usize + 1], 1000, "order: {ids:?}");
    }

    #[test]
    fn sessions_in_one_lane_interleave_round_robin() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let (a, b) = (session(1), session(2));
        for id in 0..10 {
            sched.push(job(id, &a, JobPriority::Normal, 6));
        }
        sched.push(job(100, &b, JobPriority::Normal, 6));
        sched.push(job(101, &b, JobPriority::Normal, 6));
        let ids = pop_ids(&mut sched);
        // DRR_QUANTUM = 16 credit buys two 6-cost jobs per turn: session A
        // serves two, then session B drains both of its jobs — B is done by
        // the fourth pop despite A's ten-deep head start.
        assert_eq!(&ids[..4], &[0, 1, 100, 101], "order: {ids:?}");
        assert_eq!(&ids[4..], &[2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn expensive_jobs_do_not_wall_off_a_cheap_session() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let (big, small) = (session(1), session(2));
        for id in 0..3 {
            sched.push(job(id, &big, JobPriority::Normal, 32));
        }
        for id in 100..110 {
            sched.push(job(id, &small, JobPriority::Normal, 2));
        }
        let ids = pop_ids(&mut sched);
        // A 32-cost job needs two rotations of credit; the 2-cost session
        // drains eight jobs on its first turn before the big one runs once.
        assert_eq!(&ids[..8], &(100..108).collect::<Vec<u64>>()[..], "order: {ids:?}");
        assert_eq!(ids.len(), 13);
    }

    #[test]
    fn remove_prunes_empty_subqueues_and_preserves_the_rest() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let (a, b) = (session(1), session(2));
        sched.push(job(0, &a, JobPriority::Normal, 4));
        sched.push(job(1, &a, JobPriority::Normal, 4));
        sched.push(job(2, &b, JobPriority::Low, 4));
        assert_eq!(sched.remove(1).map(|j| j.id), Some(1));
        assert!(sched.remove(1).is_none(), "a job can only be removed once");
        assert_eq!(sched.remove(2).map(|j| j.id), Some(2));
        assert_eq!(pop_ids(&mut sched), vec![0]);
        assert!(sched.pop().is_none());
        // The emptied structures accept new work.
        sched.push(job(3, &b, JobPriority::Low, 4));
        assert_eq!(pop_ids(&mut sched), vec![3]);
    }

    #[test]
    fn a_huge_cost_job_is_served_without_quantum_sized_spinning() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let s = session(0);
        // Cost far beyond one quantum: the stall laps must be
        // fast-forwarded arithmetically, and the job still pops.
        sched.push(job(0, &s, JobPriority::Normal, 100_000));
        sched.push(job(1, &s, JobPriority::Normal, 4));
        assert_eq!(pop_ids(&mut sched), vec![0, 1]);
        // A cheap session next to the huge one is served first and is
        // never starved by the big head's credit accrual.
        let (big, small) = (session(1), session(2));
        sched.push(job(10, &big, JobPriority::Normal, 100_000));
        sched.push(job(20, &small, JobPriority::Normal, 2));
        sched.push(job(21, &small, JobPriority::Normal, 2));
        let ids = pop_ids(&mut sched);
        assert_eq!(&ids[..2], &[20, 21], "cheap jobs go first: {ids:?}");
        assert_eq!(ids[2], 10);
    }

    #[test]
    fn emptying_a_lane_by_removal_resets_its_age() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let s = session(0);
        for id in 0..40 {
            sched.push(job(id, &s, JobPriority::High, 4));
        }
        sched.push(job(1000, &s, JobPriority::Low, 4));
        // Age the Low lane almost to the threshold, then cancel its only
        // job: the lane empties and its accumulated age must die with it.
        for _ in 0..AGE_AFTER_POPS - 1 {
            assert!(sched.pop().expect("High job").id < 100);
        }
        assert_eq!(sched.remove(1000).map(|j| j.id), Some(1000));
        // A fresh Low job starts from zero: it must survive the full
        // AGE_AFTER_POPS bypasses again, not be served "pre-aged".
        sched.push(job(2000, &s, JobPriority::Low, 4));
        let ids = pop_ids(&mut sched);
        assert_eq!(ids[AGE_AFTER_POPS as usize], 2000, "order: {ids:?}");
        assert!(ids[..AGE_AFTER_POPS as usize].iter().all(|&id| id < 100));
    }

    #[test]
    fn drr_meters_predicted_microseconds_so_a_cheap_session_is_never_walled_off() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let (heavy, light) = (session(1), session(2));
        // Costs are predicted microseconds: three ~50ms jobs against ten
        // ~0.5ms jobs. The currency is seconds of backend time, so the
        // light session's whole queue drains before one heavy job has
        // accrued the credit to run — few-expensive and many-cheap are
        // throttled by the same meter.
        for id in 0..3 {
            sched.push(job(id, &heavy, JobPriority::Normal, 50_000));
        }
        for id in 100..110 {
            sched.push(job(id, &light, JobPriority::Normal, 500));
        }
        let ids = pop_ids(&mut sched);
        assert_eq!(&ids[..10], &(100..110).collect::<Vec<u64>>()[..], "order: {ids:?}");
        assert_eq!(&ids[10..], &[0, 1, 2]);
    }

    #[test]
    fn backlog_tracks_pushes_pops_and_removals() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let s = session(0);
        assert_eq!(sched.backlog_micros(), 0);
        sched.push(job(0, &s, JobPriority::Normal, 1000));
        sched.push(job(1, &s, JobPriority::Normal, 250));
        assert_eq!(sched.backlog_micros(), 1250);
        assert_eq!(sched.remove(1).map(|j| j.id), Some(1));
        assert_eq!(sched.backlog_micros(), 1000);
        assert!(sched.pop().is_some());
        assert_eq!(sched.backlog_micros(), 0);
        assert!(sched.pop().is_none());
        // The strict policy meters the same backlog.
        let mut strict = JobScheduler::new(SchedulerPolicy::StrictPriority);
        strict.push(job(2, &s, JobPriority::High, 42));
        assert_eq!(strict.backlog_micros(), 42);
        assert!(strict.pop().is_some());
        assert_eq!(strict.backlog_micros(), 0);
    }

    #[test]
    fn fair_pop_drains_exactly_what_was_pushed() {
        let mut sched = JobScheduler::new(SchedulerPolicy::FairShare);
        let (a, b) = (session(1), session(2));
        let mut pushed = Vec::new();
        for id in 0..20 {
            let (s, priority) = match id % 4 {
                0 => (&a, JobPriority::High),
                1 => (&b, JobPriority::Normal),
                2 => (&a, JobPriority::Low),
                _ => (&b, JobPriority::High),
            };
            sched.push(job(id, s, priority, 1 + (id as usize % 7)));
            pushed.push(id);
        }
        let mut ids = pop_ids(&mut sched);
        ids.sort_unstable();
        assert_eq!(ids, pushed, "every pushed job pops exactly once");
        assert!(sched.pop().is_none());
    }
}
